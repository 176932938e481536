"""Kernel benchmark collection and JSON emission.

Turns one full runtime run — reorder, convert, sequential + parallel
sweeps, SpMV, SYMGS, and a PCG/V-cycle solve, all executed through a
single :class:`~repro.runtime.session.SolverSession` — into a
machine-readable report: per-kernel op mixes, per-stream bytes,
wall-clock seconds and parallel-vs-sequential speedups, plus the
session's per-phase ledger. ``repro bench all --only runtime``
serializes it to
``BENCH_runtime.json``, the seed of the repository's bench trajectory.

Per-kernel op mixes come from the closed forms in
:mod:`repro.kernels.counts` (validated against the instrumented engine
twins by the test suite); sequential wall-clock numbers time the
requested backend tier's kernels at ``k = 1`` on matrices carrying the
block-row level schedule :func:`repro.serve.plan.compile_plan`
attaches — the kernels plans serve — best-of-``repeats``, so
Python-level jitter is damped. The parallel sweeps follow the color
schedule and ignore the level schedule.
"""

from __future__ import annotations

import json
import platform
import time

import numpy as np

from repro.simd.counters import OpCounter, counter_to_dict


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _kernel_entry(counts: OpCounter, seconds: float,
                  seconds_parallel: float | None = None) -> dict:
    entry = {
        "counts": counter_to_dict(counts),
        "seconds": seconds,
    }
    if seconds_parallel is not None:
        entry["seconds_parallel"] = seconds_parallel
        entry["speedup_vs_sequential"] = (
            seconds / seconds_parallel if seconds_parallel > 0
            else float("nan"))
    return entry


def collect_bench_runtime(nx: int = 8, stencil: str = "27pt",
                          bsize: int = 4, n_workers: int = 4,
                          dtype: str = "f64", repeats: int = 3,
                          pcg_iters: int = 5,
                          backend: str = "numpy-fast",
                          seed: int = 2024) -> dict:
    """Run the benchmark suite through one session; return the report.

    The report covers SpTRSV (lower + upper, sequential and
    pool-parallel), SpMV (CSR and DBSR) and SYMGS (DBSR), plus a short
    MG-preconditioned PCG solve that exercises the ``vcycle`` /
    ``spmv`` phase timers — all on a single shared thread pool.

    ``backend`` names the kernel tier recorded in the config (and
    resolved like :func:`repro.serve.plan.compile_plan` does); the
    report additionally carries a ``backends`` section timing the
    SpTRSV/SpMV/SYMGS plan-op surface through **every** available tier
    on the same artifacts, so the numpy-fast-vs-counted (and, when
    installed, numba) wall-clock ordering is measurable from one run.
    """
    from repro.backends import (
        available_backends,
        get_backend,
        resolve_backend,
    )
    from repro.formats.dbsr import DBSRMatrix
    from repro.formats.dbsr_levels import build_block_levels, schedule_sweeps
    from repro.grids.problems import poisson_problem
    from repro.kernels.counts import (
        spmv_csr_counts,
        spmv_dbsr_counts,
        sptrsv_dbsr_counts,
        symgs_dbsr_counts,
    )
    from repro.kernels.spmv import spmv
    from repro.kernels.sptrsv_csr import split_triangular
    from repro.multigrid.hierarchy import build_hierarchy
    from repro.multigrid.smoothers import make_smoother
    from repro.multigrid.vcycle import MGPreconditioner
    from repro.ordering.blocks import auto_block_dims
    from repro.ordering.vbmc import build_vbmc
    from repro.parallel.executor import (
        sptrsv_dbsr_lower_parallel,
        sptrsv_dbsr_upper_parallel,
    )
    from repro.runtime.session import SolverSession
    from repro.solvers.pcg import pcg

    np_dtype = np.float32 if dtype in ("f32", "float32") else np.float64
    problem = poisson_problem((nx,) * 3, stencil, dtype=np_dtype)

    with SolverSession(n_workers=n_workers) as session:
        with session.phase("reorder"):
            block_dims = auto_block_dims(problem.grid, n_workers,
                                         bsize=bsize)
            vb = build_vbmc(problem.grid, problem.stencil, block_dims,
                            bsize)
        with session.phase("convert"):
            Ap = vb.apply_matrix(problem.matrix)
            dbsr = DBSRMatrix.from_csr(Ap, bsize)
            L, D, U = split_triangular(Ap)
            Ld = DBSRMatrix.from_csr(L, bsize)
            Ud = DBSRMatrix.from_csr(U, bsize)
            # The level schedule compile_plan attaches, so the
            # sequential and backend timings run the served sweeps.
            levels = build_block_levels(dbsr)
            for m in (dbsr, Ld, Ud):
                schedule_sweeps(m, levels, diag=D)

        rng = np.random.default_rng(seed)
        b = rng.standard_normal(Ap.n_rows).astype(np_dtype)
        Bk = b.reshape(-1, 1)
        resolved = resolve_backend(backend)

        kernels = {}

        # SpTRSV — sequential (the served tier at k = 1) wall-clock vs
        # shared-pool parallel.
        seq_lo = _best_of(
            lambda: resolved.sptrsv_dbsr_multi(Ld, Bk, D, True), repeats)
        seq_up = _best_of(
            lambda: resolved.sptrsv_dbsr_multi(Ud, Bk, D, False),
            repeats)
        with session.phase("sweep"):
            par_lo = _best_of(
                lambda: sptrsv_dbsr_lower_parallel(
                    Ld, b, vb.schedule, diag=D, session=session),
                repeats)
            par_up = _best_of(
                lambda: sptrsv_dbsr_upper_parallel(
                    Ud, b, vb.schedule, diag=D, session=session),
                repeats)
        kernels["sptrsv_dbsr_lower"] = _kernel_entry(
            sptrsv_dbsr_counts(Ld, divide=True), seq_lo, par_lo)
        kernels["sptrsv_dbsr_upper"] = _kernel_entry(
            sptrsv_dbsr_counts(Ud, divide=True), seq_up, par_up)

        # SpMV — CSR baseline and gather-free DBSR.
        with session.phase("spmv"):
            t_csr = _best_of(lambda: spmv(problem.matrix, b[:problem.n]),
                             repeats)
            t_dbsr = _best_of(lambda: spmv(dbsr, b), repeats)
        session.tally(spmv_csr_counts(problem.matrix))
        session.tally(spmv_dbsr_counts(dbsr))
        kernels["spmv_csr"] = _kernel_entry(
            spmv_csr_counts(problem.matrix), t_csr)
        kernels["spmv_dbsr"] = _kernel_entry(
            spmv_dbsr_counts(dbsr), t_dbsr)

        # SYMGS — the paper's smoothing kernel.
        diag = Ap.diagonal()
        with session.phase("symgs"):
            t_symgs = _best_of(
                lambda: resolved.symgs_dbsr_multi(
                    dbsr, diag, np.zeros_like(Bk), Bk), repeats)
        session.tally(symgs_dbsr_counts(dbsr))
        kernels["symgs_dbsr"] = _kernel_entry(
            symgs_dbsr_counts(dbsr), t_symgs)

        # Backend tier comparison: the same SpTRSV/SpMV/SYMGS surface
        # through every tier available here, on the same artifacts.
        tier_seconds = {}
        for tier_name in available_backends():
            be = get_backend(tier_name)
            tier_seconds[tier_name] = {
                "sptrsv_lower": _best_of(
                    lambda: be.sptrsv_dbsr_multi(Ld, Bk, D, True),
                    repeats),
                "spmv": _best_of(
                    lambda: be.spmv_dbsr_multi(dbsr, Bk), repeats),
                "symgs": _best_of(
                    lambda: be.symgs_dbsr_multi(
                        dbsr, diag, np.zeros_like(Bk), Bk), repeats),
            }

        # Short MG-preconditioned PCG: exercises vcycle/spmv phases.
        def factory(grid, stencil_, matrix):
            return make_smoother("dbsr", grid, stencil_, matrix,
                                 bsize=bsize, n_workers=n_workers,
                                 session=session)

        top = build_hierarchy(problem.grid, problem.stencil, factory,
                              n_levels=2, matrix=problem.matrix)
        M = MGPreconditioner(top, session=session)
        _, hist = pcg(problem.matrix, problem.rhs, M, tol=1e-10,
                      maxiter=pcg_iters, session=session)

        report = {
            "schema": "dbsr-repro/bench-runtime/v1",
            "config": {
                "nx": nx,
                "stencil": stencil,
                "bsize": bsize,
                "n_workers": n_workers,
                "dtype": str(np.dtype(np_dtype)),
                "backend": backend,
                "repeats": repeats,
                "seed": seed,
                "n_rows_padded": Ap.n_rows,
                "n_tiles": dbsr.n_tiles,
                "n_colors": vb.n_colors,
            },
            "host": {
                "python": platform.python_version(),
                "machine": platform.machine(),
            },
            "kernels": kernels,
            "backends": {
                "requested": backend,
                "resolved": resolved.name,
                "available": list(available_backends()),
                "seconds": tier_seconds,
            },
            "phases": session.phase_report(),
            "session": {
                "pools_created": session.pools_created,
                "n_workers": session.n_workers,
                "total_counter": counter_to_dict(session.counter),
            },
            "pcg": {
                "iterations": hist.iterations,
                "converged": bool(hist.converged),
            },
        }
    return report


def write_bench_json(report: dict, path: str) -> str:
    """Write the report as pretty-printed JSON; returns ``path``."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path
