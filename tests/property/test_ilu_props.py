"""Property-based tests for ILU(0) on random diagonally dominant
matrices."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.csr import CSRMatrix
from repro.formats.dbsr import DBSRMatrix
from repro.ilu.ilu0_csr import (
    ilu0_apply_csr,
    ilu0_factorize_csr,
    split_lu,
)
from repro.ilu.ilu0_dbsr import (
    build_ilu0_schedule,
    ilu0_apply_dbsr,
    ilu0_factorize_dbsr,
    ilu0_refactorize_dbsr,
)


@st.composite
def dd_matrices(draw, multiple_of=1, max_n=24):
    """Random diagonally dominant sparse matrices (stable ILU)."""
    k = draw(st.integers(2, max_n // multiple_of))
    n = k * multiple_of
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.floats(0.05, 0.4))
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n))
    dense[rng.random((n, n)) > density] = 0.0
    np.fill_diagonal(dense, 0.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return CSRMatrix.from_dense(dense)


@given(dd_matrices())
@settings(max_examples=25, deadline=None)
def test_ilu_residual_zero_on_pattern(A):
    """The defining ILU(0) property: (L U - A) vanishes exactly on the
    sparsity pattern of A."""
    f = ilu0_factorize_csr(A)
    L, U = split_lu(f)
    R = L @ U - A.to_dense()
    pattern = A.to_dense() != 0
    assert np.allclose(R[pattern], 0.0, atol=1e-9)


@given(dd_matrices())
@settings(max_examples=25, deadline=None)
def test_ilu_apply_inverts_lu(A):
    rng = np.random.default_rng(A.nnz)
    f = ilu0_factorize_csr(A)
    L, U = split_lu(f)
    r = rng.standard_normal(A.n_rows)
    z = ilu0_apply_csr(f, r)
    assert np.allclose(L @ (U @ z), r, atol=1e-8)


@given(dd_matrices(multiple_of=4))
@settings(max_examples=20, deadline=None)
def test_block_ilu_finite_and_consistent(A):
    """Algorithm 4 on arbitrary (non-vBMC) DBSR tilings must stay
    finite and invert its own LU factors."""
    dbsr = DBSRMatrix.from_csr(A, 4)
    if np.any(dbsr.dia_ptr < 0):
        return  # degenerate tiling; factorization requires diag tiles
    f = ilu0_factorize_dbsr(dbsr)
    assert np.all(np.isfinite(f.matrix.values))
    rng = np.random.default_rng(A.nnz)
    r = rng.standard_normal(A.n_rows)
    z = ilu0_apply_dbsr(f, r)
    assert np.all(np.isfinite(z))


@given(dd_matrices(multiple_of=4))
@settings(max_examples=20, deadline=None)
def test_schedule_replay_matches_factorization_bitwise(A):
    """A structural schedule built once must replay Algorithm 4 bit
    for bit on any coefficient snapshot with the same pattern."""
    dbsr = DBSRMatrix.from_csr(A, 4)
    if np.any(dbsr.dia_ptr < 0):
        return
    schedule = build_ilu0_schedule(dbsr)
    slow = ilu0_factorize_dbsr(dbsr)
    fast = ilu0_refactorize_dbsr(dbsr, schedule)
    assert np.array_equal(slow.matrix.values, fast.matrix.values)
    assert np.array_equal(slow.dia_ptr, fast.dia_ptr)


@st.composite
def grid_snapshots(draw):
    """A small structured grid, a DBSR plan config, and a value
    perturbation seed — the serving tier's repack domain."""
    nx = draw(st.integers(3, 5))
    stencil = draw(st.sampled_from(["7pt", "27pt"]))
    bsize = draw(st.sampled_from([4, 8]))
    seed = draw(st.integers(0, 2**16))
    scale = draw(st.floats(0.01, 0.2))
    return nx, stencil, bsize, seed, scale


@given(grid_snapshots())
@settings(max_examples=10, deadline=None)
def test_repack_bitwise_equals_cold_compile(snap):
    """The serving-tier invariant: a value-only repack of a warm plan
    is indistinguishable, bit for bit, from compiling cold with the
    same snapshot."""
    from repro.grids.grid import StructuredGrid
    from repro.serve.ilu_plan import (
        compile_ilu_plan,
        repack_ilu_plan,
        value_digest,
    )
    from repro.serve.plan import PlanConfig

    nx, stencil, bsize, seed, scale = snap
    grid = StructuredGrid((nx, nx, nx))
    config = PlanConfig(bsize=bsize)
    plan = compile_ilu_plan(grid, stencil, config)
    rng = np.random.default_rng(seed)
    v2 = plan.values_src * (
        1.0 + scale * rng.uniform(-1.0, 1.0, plan.values_src.shape))
    warm = repack_ilu_plan(plan, v2, value_digest(v2))
    cold = compile_ilu_plan(grid, stencil, config, values=v2)
    assert warm.value_digest == cold.value_digest
    assert np.array_equal(warm.factors.matrix.values,
                          cold.factors.matrix.values)
    assert np.array_equal(warm.matrix.data, cold.matrix.data)
    b = np.random.default_rng(seed + 1).standard_normal(plan.n)
    assert np.array_equal(warm.apply(b), cold.apply(b))


@given(dd_matrices())
@settings(max_examples=15, deadline=None)
def test_ilu_preconditioner_reduces_richardson_residual(A):
    from repro.solvers.stationary import preconditioned_richardson

    rng = np.random.default_rng(A.n_rows)
    b = A.matvec(rng.standard_normal(A.n_rows))
    f = ilu0_factorize_csr(A)
    _, hist = preconditioned_richardson(
        A, b, lambda r: ilu0_apply_csr(f, r), tol=1e-8, maxiter=100)
    assert hist.final_residual < hist.initial_residual or \
        hist.initial_residual == 0.0
