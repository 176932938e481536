"""Plan compilation and structural-fingerprint stability."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.grids.grid import StructuredGrid
from repro.serve.plan import (
    PLAN_OPS,
    PlanConfig,
    compile_plan,
    structural_fingerprint,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture(scope="module")
def grid():
    return StructuredGrid((8, 8, 8))


@pytest.fixture(scope="module")
def plan(grid):
    return compile_plan(grid, "27pt", PlanConfig(bsize=4, n_workers=2))


def test_fingerprint_is_deterministic(grid):
    cfg = PlanConfig(bsize=4, n_workers=2)
    fp1 = structural_fingerprint(grid, "27pt", cfg)
    fp2 = structural_fingerprint(StructuredGrid((8, 8, 8)), "27pt",
                                 PlanConfig(bsize=4, n_workers=2))
    assert fp1 == fp2
    assert len(fp1) == 64  # sha256 hex


def test_fingerprint_stable_across_kwarg_orderings(grid):
    """Config fields supplied in any order produce one fingerprint."""
    a = PlanConfig(**{"bsize": 4, "n_workers": 2, "dtype": "f64",
                      "machine": "intel"})
    b = PlanConfig(**dict(reversed(list(
        {"bsize": 4, "n_workers": 2, "dtype": "f64",
         "machine": "intel"}.items()))))
    assert structural_fingerprint(grid, "27pt", a) \
        == structural_fingerprint(grid, "27pt", b)


def test_fingerprint_stable_across_processes(grid):
    """SHA-256 over canonical JSON must not depend on the process's
    hash seed (unlike ``hash()``)."""
    script = (
        "from repro.grids.grid import StructuredGrid\n"
        "from repro.serve.plan import PlanConfig, structural_fingerprint\n"
        "print(structural_fingerprint(StructuredGrid((8, 8, 8)), '27pt',"
        " PlanConfig(bsize=4, n_workers=2)))\n"
    )
    env = dict(os.environ,
               PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
               PYTHONHASHSEED="12345")
    out1 = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    env["PYTHONHASHSEED"] = "54321"
    out2 = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    local = structural_fingerprint(grid, "27pt",
                                   PlanConfig(bsize=4, n_workers=2))
    assert out1.stdout.strip() == out2.stdout.strip() == local


@pytest.mark.parametrize("change", [
    {"bsize": 8},
    {"dtype": "f32"},
    {"backend": "numpy-counted"},
    {"n_workers": 8},
    {"machine": "phytium"},
    {"groups_per_worker": 2},
])
def test_fingerprint_distinguishes_config_fields(grid, change):
    base = PlanConfig(bsize=4, n_workers=2)
    other = PlanConfig(**{**{"bsize": 4, "n_workers": 2}, **change})
    assert structural_fingerprint(grid, "27pt", base) \
        != structural_fingerprint(grid, "27pt", other)


def test_fingerprint_distinguishes_structure(grid):
    cfg = PlanConfig(bsize=4)
    assert structural_fingerprint(grid, "27pt", cfg) \
        != structural_fingerprint(grid, "7pt", cfg)
    assert structural_fingerprint(grid, "27pt", cfg) \
        != structural_fingerprint(StructuredGrid((8, 8, 4)), "27pt", cfg)


def test_fingerprint_auto_bsize_distinct_from_pinned(grid):
    assert structural_fingerprint(grid, "27pt", PlanConfig(bsize=None)) \
        != structural_fingerprint(grid, "27pt", PlanConfig(bsize=4))


def test_compiled_plan_artifacts(plan):
    assert plan.bsize == 4
    assert plan.dbsr.bsize == 4
    assert plan.n == 512
    assert plan.n_padded % 4 == 0
    assert plan.lower.n_rows == plan.n_padded
    assert plan.compile_seconds > 0
    assert not plan.autotuned
    desc = plan.describe()
    assert desc["fingerprint"] == plan.fingerprint
    json.dumps(desc)  # JSON-serializable


def test_plan_solves_are_correct(plan, rng):
    """lower/upper solves actually solve their triangular systems."""
    b = rng.standard_normal(plan.n)
    x = plan.execute("lower", b)
    Ap = plan.matrix
    # Verify in padded space: (L + D) xp == bp.
    from repro.kernels.sptrsv_csr import split_triangular

    L, D, U = split_triangular(Ap)
    xp = plan.extend(x)
    bp = plan.extend(b)
    resid = L.matvec(xp) + D * xp - bp
    assert np.abs(resid).max() < 1e-10


def test_plan_spmv_matches_csr(plan, rng):
    x = rng.standard_normal(plan.n)
    y = plan.execute("spmv", x)
    yp = plan.matrix.matvec(plan.extend(x))
    assert np.allclose(y, plan.restrict(yp))


def test_all_ops_accept_single_and_batched(plan, rng):
    B = rng.standard_normal((plan.n, 3))
    for op in PLAN_OPS:
        X = plan.execute(op, B)
        assert X.shape == (plan.n, 3)
        for j in range(3):
            assert np.array_equal(X[:, j], plan.execute(op, B[:, j])), op


def test_plans_compile_to_dbsr_only():
    """SELL is a comparison format, not a serving strategy: there is
    no knob to select it."""
    with pytest.raises(TypeError):
        PlanConfig(strategy="sell")


def test_autotune_plan_resolves_bsize(grid):
    plan = compile_plan(grid, "27pt",
                        PlanConfig(bsize=None, machine="kp920",
                                   n_workers=2))
    assert plan.autotuned
    assert plan.bsize >= 1
    # bsize_hint skips autotune but must land on the same artifacts.
    hinted = compile_plan(grid, "27pt",
                          PlanConfig(bsize=None, machine="kp920",
                                     n_workers=2),
                          bsize_hint=plan.bsize)
    assert not hinted.autotuned
    assert hinted.bsize == plan.bsize


def test_bad_op_and_bad_rhs_rejected(plan):
    with pytest.raises(ValueError):
        plan.execute("nope", np.zeros(plan.n))
    with pytest.raises(ValueError):
        plan.execute("lower", np.zeros(plan.n + 1))


def test_cold_compile_converts_the_operator_once(grid, monkeypatch):
    """The triangles are tile masks of the full operator: a cold
    compile runs exactly one DBSR conversion."""
    from repro.formats.dbsr import DBSRMatrix

    convert = DBSRMatrix.from_csr.__func__
    calls = []

    def counting(cls, csr, bsize):
        calls.append(csr.shape)
        return convert(cls, csr, bsize)

    monkeypatch.setattr(DBSRMatrix, "from_csr", classmethod(counting))
    plan = compile_plan(grid, "7pt", PlanConfig(bsize=8, n_workers=2))
    assert calls == [plan.matrix.shape]
    assert plan.lower.n_tiles + plan.upper.n_tiles < plan.dbsr.n_tiles
