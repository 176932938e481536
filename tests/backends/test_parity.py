"""Tier parity: every backend is bit-identical to the counted twin.

The twin-testing contract (docs/backends.md): ``numpy-counted`` is the
reference; ``numpy-fast`` and the numba loop bodies must match it under
``np.array_equal`` on every op, format, and block size — and the
counted twin's tallies must equal the closed forms exactly. The numba
leg runs the *same* loop nests interpreted (``jit=False``) where numba
is missing, and JIT-compiled where it is present.

Every tier's DBSR kernels are also pinned per op as: column ``j`` of a
``k``-wide call equals the ``k = 1`` call on column ``j``, and the
``k = 1`` result matches the CSR reference kernel.
"""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.numba_backend import NumbaBackend, numba_available
from repro.formats.dbsr import DBSRMatrix
from repro.grids import StructuredGrid
from repro.ilu.ilu0_csr import ilu0_apply_csr
from repro.ilu.ilu0_dbsr import ilu0_factorize_dbsr
from repro.kernels.sptrsv_csr import (
    split_triangular,
    sptrsv_csr,
    sptrsv_csr_upper,
)
from repro.kernels.symgs import symgs_csr
from repro.serve.plan import PLAN_OPS, PlanConfig, compile_plan

GRID = (6, 6, 6)
STENCIL = "27pt"

PLAN_CASES = [
    ("dbsr", 4),
    ("dbsr", 8),
    ("sell", 4),
]


def _plan(strategy, bsize, backend="numpy-fast"):
    return compile_plan(
        StructuredGrid(GRID), STENCIL,
        PlanConfig(bsize=bsize, strategy=strategy, backend=backend))


@pytest.fixture(scope="module")
def rhs(rng):
    return rng.standard_normal((StructuredGrid(GRID).n_points, 3))


@pytest.mark.parametrize("strategy,bsize", PLAN_CASES)
@pytest.mark.parametrize("op", PLAN_OPS)
def test_fast_plan_bitwise_equals_counted_plan(strategy, bsize, op, rhs):
    fast = _plan(strategy, bsize, "numpy-fast")
    counted = _plan(strategy, bsize, "numpy-counted")
    assert fast._backend().name == "numpy-fast"
    assert counted._backend().name == "numpy-counted"
    assert np.array_equal(fast.execute(op, rhs),
                          counted.execute(op, rhs))


@pytest.mark.parametrize("strategy,bsize", PLAN_CASES)
@pytest.mark.parametrize("op", PLAN_OPS)
def test_numba_bodies_bitwise_equal_counted(strategy, bsize, op, rhs):
    """The numba loop nests (interpreted, so this runs everywhere)
    reproduce the counted twin bit-for-bit."""
    plan = _plan(strategy, bsize)
    counted = get_backend("numpy-counted")
    nb = NumbaBackend(jit=False)
    Bp = plan.extend(rhs)
    assert np.array_equal(nb.run(plan, op, Bp),
                          counted.run(plan, op, Bp))


@pytest.mark.parametrize("strategy,bsize", PLAN_CASES)
@pytest.mark.parametrize("op", PLAN_OPS)
def test_jit_bitwise_equals_counted(strategy, bsize, op, rhs):
    """jit ≡ counted — the compiled-tier twin contract (numba only)."""
    pytest.importorskip("numba")
    plan = _plan(strategy, bsize, backend="numba")
    assert plan._backend().name == "numba"
    counted = _plan(strategy, bsize, "numpy-counted")
    assert np.array_equal(plan.execute(op, rhs),
                          counted.execute(op, rhs))


def test_jit_false_and_true_agree_when_numba_present(rhs):
    if not numba_available():
        pytest.skip("numba not installed")
    plan = _plan("dbsr", 4)
    Bp = plan.extend(rhs)
    for op in PLAN_OPS:
        assert np.array_equal(NumbaBackend(jit=True).run(plan, op, Bp),
                              NumbaBackend(jit=False).run(plan, op, Bp))


@pytest.mark.parametrize("op", PLAN_OPS)
def test_counted_tallies_equal_plan_closed_forms(op, rhs):
    """The counted backend's engine tally equals the closed forms the
    plan attributes to its execute spans — per op, k > 1."""
    plan = _plan("dbsr", 4, "numpy-counted")
    backend = plan._backend()
    plan.execute(op, rhs)
    engine = backend.last_engine
    expected = plan.op_counts(op, rhs.shape[1])
    for fld in ("vload", "vstore", "vgather", "vscatter", "vfma",
                "vdiv", "vadd", "bytes_values", "bytes_index",
                "bytes_vector", "bytes_gathered"):
        assert getattr(engine.counter, fld) == getattr(expected, fld), \
            (op, fld)


def test_counted_sell_tally_scales_with_k(rng):
    plan = _plan("sell", 4, "numpy-counted")
    backend = plan._backend()
    B = rng.standard_normal((plan.n, 4))
    plan.execute("lower", B)
    expected = plan.op_counts("lower", 4)
    assert backend.last_engine.counter.vfma == expected.vfma
    assert backend.last_engine.counter.vgather == expected.vgather


# Column identity + CSR agreement, per op and per tier ------------------

DBSR_OPS = ("lower", "upper", "spmv", "symgs", "ilu_apply")
TIERS = ("numpy-counted", "numpy-fast", "numba-bodies", "numba-jit")


def _tier(name):
    if name == "numba-bodies":
        return NumbaBackend(jit=False)
    if name == "numba-jit":
        pytest.importorskip("numba")
        return NumbaBackend(jit=True)
    return get_backend(name)


@pytest.fixture(scope="module")
def artifacts(reordered_3d):
    csr, dbsr = reordered_3d
    L, D, U = split_triangular(csr)
    bs = dbsr.bsize
    factors = ilu0_factorize_dbsr(dbsr)
    return {
        "csr": csr, "dbsr": dbsr, "L": L, "U": U, "D": D,
        "Ld": DBSRMatrix.from_csr(L, bs), "Ud": DBSRMatrix.from_csr(U, bs),
        "factors": factors, "csr_factors": factors.to_csr_factors(),
    }


def _run(backend, op, a, B):
    if op == "lower":
        return backend.sptrsv_dbsr_multi(a["Ld"], B, a["D"], forward=True)
    if op == "upper":
        return backend.sptrsv_dbsr_multi(a["Ud"], B, a["D"],
                                         forward=False)
    if op == "spmv":
        return backend.spmv_dbsr_multi(a["dbsr"], B)
    if op == "symgs":
        return backend.symgs_dbsr_multi(a["dbsr"], a["D"],
                                        np.zeros_like(B), B)
    return backend.ilu_apply_dbsr_multi(a["factors"], B)


def _csr_reference(op, a, b):
    if op == "lower":
        return sptrsv_csr(a["L"], a["D"], b)
    if op == "upper":
        return sptrsv_csr_upper(a["U"], a["D"], b)
    if op == "spmv":
        return a["csr"].matvec(b)
    if op == "symgs":
        return symgs_csr(a["csr"], a["D"], np.zeros_like(b), b.copy())
    return ilu0_apply_csr(a["csr_factors"], b)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("op", DBSR_OPS)
def test_k_wide_columns_equal_k1_calls_and_csr(tier, op, artifacts, rng):
    backend = _tier(tier)
    B = rng.standard_normal((artifacts["dbsr"].n_rows, 3))
    X = _run(backend, op, artifacts, B)
    for j in range(B.shape[1]):
        x1 = _run(backend, op, artifacts, B[:, j:j + 1])
        assert x1.shape == (B.shape[0], 1)
        assert np.array_equal(X[:, j:j + 1], x1), j
        assert np.allclose(x1[:, 0], _csr_reference(op, artifacts,
                                                    B[:, j])), j
