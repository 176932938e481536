"""Self-test of the benchmark: ``python3 perfbench/run.py --smoke``.

Runs every workload briefly, untraced and traced, in its own process
and checks the result line against ``BENCHMARK.json``: exactly the
declared metric names with their units, a passing correctness gate and
no failed column.  A canary run per gate kind then corrupts one served
column and must come back with exactly one failed column.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SMOKE_SECONDS = "2"
CANARIES = ("tri-small", "ilu-drift", "hpcg-mg")


def _run(script: Path, workload: str, trace: int, *extra) -> dict:
    cmd = [sys.executable, str(script), "--workload", workload,
           "--seed", "7", "--seconds", SMOKE_SECONDS, "--trace", str(trace),
           *extra]
    proc = subprocess.run(cmd, cwd=script.parent.parent, capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _problems(result: dict, declared: list) -> list:
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        out.append(f"metrics/units differ: missing {sorted(want.keys() - got.keys())},"
                   f" extra {sorted(got.keys() - want.keys())}, "
                   f"unit mismatch {[k for k in want if k in got and got[k] != want[k]]}")
    for name, metric in result.get("metrics", {}).items():
        if not isinstance(metric.get("value"), float):
            out.append(f"{name} value is not a number")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        out.append("attempted < 1")
    return out


def run_smoke(script: Path) -> int:
    spec = json.loads((script.parent.parent / "BENCHMARK.json").read_text())
    bad = 0
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            result = _run(script, w["name"], trace)
            problems = _problems(result, declared)
            if not result["correct"] or result["failed"]:
                problems.append(f"correct={result['correct']} "
                                f"failed={result['failed']}")
            bad += bool(problems)
            print(f"{w['name']:<14} trace={trace} "
                  f"{'ok' if not problems else 'FAIL ' + '; '.join(problems)}")
    for name in CANARIES:
        result = _run(script, name, 0, "--canary")
        ok = result["failed"] == 1 and not result["correct"]
        bad += not ok
        print(f"{name:<14} canary  {'ok' if ok else 'FAIL'} "
              f"(failed={result['failed']}, correct={result['correct']})")
    print("smoke:", "pass" if not bad else f"{bad} problem(s)")
    return 1 if bad else 0
