"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro.cli hpcg --nx 16 --variant dbsr
    python -m repro.cli ilu --nx 8 --strategy simd-auto --threads 16
    python -m repro.cli storage --nx 16 --bsizes 1,2,4,8,16
    python -m repro.cli weak-scaling --variant dbsr --nodes 1,4,16,64,256
    python -m repro.cli figures fig9
    python -m repro.cli bench all --quick
    python -m repro.cli bench all --only serve,ilu
    python -m repro.cli bench all --update-references
    python -m repro.cli solve path/to/matrix.mtx --bsize 4
    python -m repro.cli spy path/to/matrix.mtx
    python -m repro.cli analyze --nx 8 --stencil 7pt

or via the ``dbsr-repro`` console script. Every bench emitter
(runtime, serve, ilu, chaos, trace, gateway, gateway-chaos) runs
through ``bench all``; ``--only <name>`` selects a subset and, unless
``--merged-only`` is given, rewrites its ``BENCH_<name>.json``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_hpcg(args) -> int:
    from repro.hpcg import (
        best_allocation,
        build_hpcg_model,
        run_hpcg,
    )
    from repro.simd.machine import TABLE1_MACHINES

    if args.validate:
        from repro.hpcg.validation import validate_variant

        report = validate_variant(nx=args.nx, variant=args.variant,
                                  n_levels=args.levels,
                                  bsize=args.bsize,
                                  n_workers=args.workers)
        print(report.summary())
        if not report.passed:
            return 1
    r = run_hpcg(nx=args.nx, variant=args.variant,
                 n_levels=args.levels, max_iters=args.max_iters,
                 tol=args.tol, bsize=args.bsize,
                 n_workers=args.workers)
    print(f"HPCG[{args.variant}] nx={args.nx}: "
          f"iters={r.iterations} relres={r.final_relres:.3e} "
          f"GFLOP={r.flops / 1e9:.3f} converged={r.converged}")
    if args.model:
        model = build_hpcg_model(nx=args.nx, variant=args.variant,
                                 n_levels=args.levels,
                                 bsize=args.bsize,
                                 n_workers=args.workers)
        for m in TABLE1_MACHINES:
            p, t, g = best_allocation(m, model)
            print(f"  {m.name}: best P{p}xT{t} -> {g:.1f} GFLOPS "
                  f"(192^3 projection)")
    return 0


def _cmd_ilu(args) -> int:
    from repro.grids.problems import poisson_problem
    from repro.ilu.strategies import STRATEGY_NAMES, make_strategy
    from repro.solvers.stationary import preconditioned_richardson

    problem = poisson_problem((args.nx,) * 3, args.stencil)
    names = ([args.strategy] if args.strategy != "all"
             else list(STRATEGY_NAMES))
    for name in names:
        s = make_strategy(name, problem, n_workers=args.threads,
                          bsize=args.bsize)
        s.factorize()
        _, hist = preconditioned_richardson(
            problem.matrix, problem.rhs, s.apply, tol=args.tol,
            maxiter=args.max_iters)
        c = s.smoothing_counter()
        print(f"{name:10s} iters={hist.iterations:4d} "
              f"colors={s.n_colors} parallelism={s.parallelism:g} "
              f"traffic={c.total_bytes // 1024}KiB "
              f"gather-free={'yes' if c.bytes_gathered == 0 else 'no'}")
    return 0


def _cmd_storage(args) -> int:
    from repro.grids.problems import poisson_problem
    from repro.perfmodel.bsize_model import storage_sweep
    from repro.utils.tables import format_table

    problem = poisson_problem((args.nx,) * 3, args.stencil)
    bsizes = tuple(int(b) for b in args.bsizes.split(","))
    rows = storage_sweep(problem, bsizes=bsizes, bsize_offset_bytes=1,
                         value_bytes=args.value_bytes)
    print(format_table(
        ["bsize", "CSR B", "DBSR idx B", "DBSR nnz B", "DBSR pad B",
         "DBSR total B"],
        rows, title=f"Storage, {args.nx}^3 {args.stencil} "
        f"({args.value_bytes}-byte values)"))
    return 0


def _cmd_weak_scaling(args) -> int:
    from repro.cluster.weakscaling import weak_scaling_sweep
    from repro.hpcg.benchmark import build_hpcg_model
    from repro.utils.tables import format_table

    model = build_hpcg_model(nx=args.nx, variant=args.variant,
                             n_levels=args.levels, bsize=args.bsize,
                             n_workers=8)
    nodes = tuple(int(n) for n in args.nodes.split(","))
    pts = weak_scaling_sweep(model, node_counts=nodes,
                             nx_model=args.nx)
    print(format_table(
        ["nodes", "ranks", "GFLOPS", "efficiency"],
        [(p.nodes, p.ranks, f"{p.gflops:.1f}",
          f"{p.efficiency * 100:.1f}%") for p in pts],
        title=f"Weak scaling ({args.variant}, Phytium 2000+ model)"))
    return 0


def _cmd_solve(args) -> int:
    from repro.formats.csr import CSRMatrix
    from repro.formats.dbsr import DBSRMatrix
    from repro.formats.io import read_matrix_market
    from repro.ilu.ilu0_dbsr import ilu0_apply_dbsr, ilu0_factorize_dbsr
    from repro.ordering.abmc import build_abmc
    from repro.solvers.stationary import preconditioned_richardson

    csr = CSRMatrix.from_coo(read_matrix_market(args.matrix))
    print(f"matrix: {csr.n_rows}x{csr.n_cols}, nnz={csr.nnz}")
    abmc = build_abmc(csr, block_size=args.block_size,
                      bsize=args.bsize)
    dbsr = DBSRMatrix.from_csr(abmc.apply_matrix(csr), args.bsize)
    print(f"ABMC: {abmc.n_colors} colors, {len(abmc.blocks)} blocks; "
          f"DBSR: {dbsr.n_tiles} tiles")
    f = ilu0_factorize_dbsr(dbsr)
    b = csr.matvec(np.ones(csr.n_rows))
    x, hist = preconditioned_richardson(
        csr, b,
        lambda r: abmc.restrict(ilu0_apply_dbsr(f, abmc.extend(r))),
        tol=args.tol, maxiter=args.max_iters)
    from repro.utils.sparkline import convergence_panel

    print(convergence_panel(hist))
    print(f"max|x-1|={np.abs(x - 1).max():.3e}")
    return 0 if hist.converged else 1


def _cmd_bench_all(args) -> int:
    from repro.regress import run_bench_all, summarize

    only = ([s for s in args.only.split(",") if s]
            if args.only else None)
    skip = [s for s in args.skip.split(",") if s] if args.skip else []
    report = run_bench_all(
        quick=args.quick, seed=args.seed, backend=args.backend,
        out=args.out, emit_individual=not args.merged_only,
        only=only, skip=skip, parallel=args.parallel,
        references_dir=args.references_dir,
        machine_id=args.machine_id,
        tolerance_scale=args.tolerance_scale,
        update_references=args.update_references,
        autotune=not args.no_autotune, fault=args.inject_fault)
    print(summarize(report))
    print(f"[written to {args.out}]")
    return 0 if report["ok"] else 1


def _cmd_spy(args) -> int:
    from repro.formats.csr import CSRMatrix
    from repro.formats.io import read_matrix_market
    from repro.utils.spy import spy

    csr = CSRMatrix.from_coo(read_matrix_market(args.matrix))
    print(f"{csr.n_rows}x{csr.n_cols}, nnz={csr.nnz}")
    print(spy(csr, max_size=args.size))
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis import (
        arithmetic_intensity,
        gs_iteration_matrix,
        roofline_point,
        spectral_radius,
    )
    from repro.formats.dbsr import DBSRMatrix
    from repro.grids.problems import poisson_problem
    from repro.kernels.counts import (
        sptrsv_csr_counts,
        sptrsv_dbsr_counts,
    )
    from repro.kernels.sptrsv_csr import split_triangular
    from repro.ordering.vbmc import build_vbmc
    from repro.simd.machine import TABLE1_MACHINES

    problem = poisson_problem((args.nx,) * 3, args.stencil)
    vb = build_vbmc(problem.grid, problem.stencil,
                    (2, 2, 2), args.bsize)
    Ap = vb.apply_matrix(problem.matrix)
    print(f"problem: {args.nx}^3 {args.stencil}; "
          f"rho(SYMGS) lexicographic = "
          f"{spectral_radius(gs_iteration_matrix(problem.matrix)):.4f}"
          f", vBMC = {spectral_radius(gs_iteration_matrix(Ap)):.4f}")
    L, D, U = split_triangular(Ap)
    c_csr = sptrsv_csr_counts(L)
    c_dbsr = sptrsv_dbsr_counts(DBSRMatrix.from_csr(L, args.bsize),
                                divide=True)
    for machine in TABLE1_MACHINES:
        ai_c = arithmetic_intensity(c_csr, machine)
        ai_d = arithmetic_intensity(c_dbsr, machine)
        pt = roofline_point(c_dbsr, machine)
        bound = "memory" if pt.memory_bound else "compute"
        print(f"  {machine.name}: SpTRSV intensity CSR {ai_c:.3f} vs "
              f"DBSR {ai_d:.3f} flop/B ({bound}-bound, roof "
              f"{pt.attainable_gflops:.1f} GFLOPS)")
    return 0


def _cmd_figures(args) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    names = (list(ALL_EXPERIMENTS) if args.id == "all"
             else [args.id])
    for name in names:
        mod = ALL_EXPERIMENTS.get(name)
        if mod is None:
            print(f"unknown experiment {name!r}; known: "
                  f"{sorted(ALL_EXPERIMENTS)}", file=sys.stderr)
            return 2
        result = mod.generate()
        render = getattr(mod, "render", None)
        print(render(result) if render else result.render())
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.backends import BACKEND_NAMES, DEFAULT_BACKEND
    from repro.regress.registry import DEFAULT_SEED, EMITTER_ORDER

    parser = argparse.ArgumentParser(
        prog="dbsr-repro",
        description="DBSR (SC 2024) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hpcg", help="run the HPCG benchmark")
    p.add_argument("--nx", type=int, default=16)
    p.add_argument("--variant", default="dbsr")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--max-iters", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--bsize", type=int, default=8)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--model", action="store_true",
                   help="also print Table I GFLOPS projections")
    p.add_argument("--validate", action="store_true",
                   help="run the HPCG symmetry/problem validation "
                        "phase first")
    p.set_defaults(func=_cmd_hpcg)

    p = sub.add_parser("ilu", help="compare ILU(0) strategies")
    p.add_argument("--nx", type=int, default=8)
    p.add_argument("--stencil", default="27pt")
    p.add_argument("--strategy", default="all")
    p.add_argument("--threads", type=int, default=8)
    p.add_argument("--bsize", type=int, default=4)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iters", type=int, default=400)
    p.set_defaults(func=_cmd_ilu)

    p = sub.add_parser("storage", help="Fig. 11 storage table")
    p.add_argument("--nx", type=int, default=16)
    p.add_argument("--stencil", default="27pt")
    p.add_argument("--bsizes", default="1,2,4,8,16")
    p.add_argument("--value-bytes", type=int, default=8,
                   choices=(4, 8))
    p.set_defaults(func=_cmd_storage)

    p = sub.add_parser("weak-scaling", help="Fig. 7 cluster model")
    p.add_argument("--nx", type=int, default=16)
    p.add_argument("--variant", default="dbsr")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--bsize", type=int, default=8)
    p.add_argument("--nodes", default="1,2,4,8,16,32,64,128,256")
    p.set_defaults(func=_cmd_weak_scaling)

    p = sub.add_parser("figures",
                       help="regenerate a paper table/figure")
    p.add_argument("id", nargs="?", default="all",
                   help="experiment id (table1, fig5..fig12, all)")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("solve",
                       help="solve a MatrixMarket system via "
                            "ABMC + DBSR ILU(0)")
    p.add_argument("matrix", help="path to a .mtx file")
    p.add_argument("--block-size", type=int, default=16)
    p.add_argument("--bsize", type=int, default=4)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iters", type=int, default=500)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench",
                       help="perf-regression harness: run the whole "
                            "bench fleet through the unified registry")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    pa = bench_sub.add_parser(
        "all",
        help="run every bench emitter, merge into BENCH_all.json, "
             "and judge the perf checks against per-machine "
             "references (exit nonzero on regression)")
    pa.add_argument("--quick", action="store_true",
                    help="small configs (CI smoke)")
    pa.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload RNG seed forwarded to every "
                         "emitter that takes one")
    pa.add_argument("--backend", default=DEFAULT_BACKEND,
                    choices=BACKEND_NAMES,
                    help="kernel backend tier forwarded to emitters "
                         "that take one")
    pa.add_argument("--out", default="BENCH_all.json")
    pa.add_argument("--only", default="",
                    help="comma-separated emitter subset, from: "
                         + ", ".join(EMITTER_ORDER))
    pa.add_argument("--skip", default="",
                    help="comma-separated emitters to skip")
    pa.add_argument("--parallel", action="store_true",
                    help="run non-exclusive emitters concurrently")
    pa.add_argument("--merged-only", action="store_true",
                    help="do not rewrite the individual BENCH_*.json "
                         "artifacts")
    pa.add_argument("--references-dir", default="references")
    pa.add_argument("--machine-id", default=None,
                    help="override the CPU-fingerprint machine id "
                         "(e.g. ci-default)")
    pa.add_argument("--tolerance-scale", type=float, default=1.0,
                    help="widen every perf tolerance band by this "
                         "factor (loose-CI mode)")
    pa.add_argument("--update-references", action="store_true",
                    help="capture/ratchet baselines instead of "
                         "judging against them")
    pa.add_argument("--no-autotune", action="store_true",
                    help="skip the roofline-vs-exhaustive autotune "
                         "differential section")
    pa.add_argument("--inject-fault", default=None,
                    choices=("kernel_delay",),
                    help="arm a synthetic fault for the whole run "
                         "(the check layer must then fail)")
    pa.set_defaults(func=_cmd_bench_all)

    p = sub.add_parser("spy", help="render a .mtx pattern as ASCII")
    p.add_argument("matrix", help="path to a .mtx file")
    p.add_argument("--size", type=int, default=64)
    p.set_defaults(func=_cmd_spy)

    p = sub.add_parser("analyze",
                       help="spectral radii and roofline placement")
    p.add_argument("--nx", type=int, default=8)
    p.add_argument("--stencil", default="27pt")
    p.add_argument("--bsize", type=int, default=4)
    p.set_defaults(func=_cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
