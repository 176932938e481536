"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main


def test_hpcg_command(capsys):
    assert main(["hpcg", "--nx", "8", "--levels", "2",
                 "--variant", "dbsr", "--bsize", "4",
                 "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "HPCG[dbsr]" in out
    assert "converged=True" in out


def test_hpcg_with_model(capsys):
    assert main(["hpcg", "--nx", "8", "--levels", "2", "--bsize", "4",
                 "--model"]) == 0
    out = capsys.readouterr().out
    assert "Phytium" in out
    assert "GFLOPS" in out


def test_ilu_single_strategy(capsys):
    assert main(["ilu", "--nx", "8", "--strategy", "simd-auto",
                 "--threads", "4", "--bsize", "4"]) == 0
    out = capsys.readouterr().out
    assert "simd-auto" in out
    assert "gather-free=yes" in out


def test_storage_command(capsys):
    assert main(["storage", "--nx", "8", "--bsizes", "1,2,4"]) == 0
    out = capsys.readouterr().out
    assert "DBSR total" in out


def test_weak_scaling_command(capsys):
    assert main(["weak-scaling", "--nx", "8", "--levels", "2",
                 "--bsize", "4", "--nodes", "1,4,16"]) == 0
    out = capsys.readouterr().out
    assert "efficiency" in out


def test_solve_command(tmp_path, capsys, rng):
    from repro.formats.coo import COOMatrix
    from repro.formats.io import write_matrix_market

    n = 20
    dense = rng.standard_normal((n, n))
    dense[np.abs(dense) < 1.0] = 0.0
    dense = (dense + dense.T) / 2
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1)
    path = tmp_path / "sys.mtx"
    write_matrix_market(COOMatrix.from_dense(dense), str(path))

    assert main(["solve", str(path), "--block-size", "5",
                 "--bsize", "2", "--tol", "1e-10"]) == 0
    out = capsys.readouterr().out
    assert "converged=True" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["warp-drive"])


def test_spy_command(tmp_path, capsys, rng):
    from repro.formats.coo import COOMatrix
    from repro.formats.io import write_matrix_market

    dense = np.eye(6)
    dense[0, 5] = 1.0
    path = tmp_path / "p.mtx"
    write_matrix_market(COOMatrix.from_dense(dense), str(path))
    assert main(["spy", str(path)]) == 0
    out = capsys.readouterr().out
    assert "6x6, nnz=7" in out


def test_analyze_command(capsys):
    assert main(["analyze", "--nx", "6", "--stencil", "7pt",
                 "--bsize", "2"]) == 0
    out = capsys.readouterr().out
    assert "rho(SYMGS)" in out
    assert "Phytium" in out
    assert "intensity" in out


def test_solve_command_prints_sparkline(tmp_path, capsys, rng):
    from repro.formats.coo import COOMatrix
    from repro.formats.io import write_matrix_market

    n = 16
    dense = rng.standard_normal((n, n))
    dense[np.abs(dense) < 1.0] = 0.0
    dense = (dense + dense.T) / 2
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1)
    path = tmp_path / "s.mtx"
    write_matrix_market(COOMatrix.from_dense(dense), str(path))
    assert main(["solve", str(path), "--block-size", "4",
                 "--bsize", "2"]) == 0
    out = capsys.readouterr().out
    assert "residual |" in out


def _bench_only(tmp_path, monkeypatch, name, quick=True):
    """Run one emitter through `bench all --only` inside ``tmp_path``
    and return ``(exit code, its BENCH_<name>.json report)``."""
    import json

    monkeypatch.chdir(tmp_path)
    rc = main(["bench", "all", "--only", name, "--no-autotune"]
              + (["--quick"] if quick else []))
    return rc, json.loads((tmp_path / f"BENCH_{name}.json").read_text())


def test_bench_runtime_command(tmp_path, monkeypatch):
    rc, report = _bench_only(tmp_path, monkeypatch, "runtime")
    assert rc == 0
    assert report["schema"] == "dbsr-repro/bench-runtime/v1"
    assert report["session"]["pools_created"] == 1
    for kernel in ("sptrsv_dbsr_lower", "spmv_dbsr", "symgs_dbsr"):
        assert report["kernels"][kernel]["counts"]["bytes"]["total"] > 0


def test_serve_bench_command(tmp_path, monkeypatch):
    # Full preset (nx=8, 24 requests): the quick one's 12 requests
    # amortize too few compiles to reach a 90% hit rate.
    rc, report = _bench_only(tmp_path, monkeypatch, "serve", quick=False)
    assert rc == 0
    assert report["schema"] == "dbsr-repro/bench-serve/v1"
    # High hit rate on a repeated-structure workload and strictly
    # decreasing value bytes per solve with k.
    assert report["cache"]["hit_rate"] >= 0.9
    assert report["batch_scaling"]["value_bytes_per_solve_decreasing"]
    assert report["batch_scaling"]["all_bitwise_equal"]
    widths = report["batch_scaling"]["widths"]
    per_solve = [w["value_bytes_per_solve"] for w in widths]
    assert per_solve == sorted(per_solve, reverse=True)
    assert all(w["bitwise_equal_to_unbatched"] for w in widths)
    assert all(w["matches_closed_form"] for w in widths)
