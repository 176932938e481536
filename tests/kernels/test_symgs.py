"""Unit tests for Gauss-Seidel / SYMGS smoothers."""

import numpy as np

from repro.kernels.symgs import (
    gs_backward_csr,
    gs_forward_csr,
    symgs_csr,
    symgs_dbsr,
)


def test_gs_forward_reduces_residual(problem_2d, rng):
    A = problem_2d.matrix
    b = problem_2d.rhs
    x = np.zeros(problem_2d.n)
    r0 = np.linalg.norm(b - A.matvec(x))
    gs_forward_csr(A, A.diagonal(), x, b)
    assert np.linalg.norm(b - A.matvec(x)) < r0


def test_symgs_converges_to_solution(problem_2d):
    A = problem_2d.matrix
    b = problem_2d.rhs
    x = np.zeros(problem_2d.n)
    for _ in range(200):
        symgs_csr(A, A.diagonal(), x, b)
    assert np.allclose(x, problem_2d.exact, atol=1e-6)


def test_gs_exact_on_triangular_system(random_sparse, rng):
    """GS solves a lower-triangular system in one forward sweep."""
    A = random_sparse(n=12, seed=21)
    L_dense = np.tril(A.to_dense())
    from repro.formats.csr import CSRMatrix

    L = CSRMatrix.from_dense(L_dense)
    b = rng.standard_normal(12)
    x = np.zeros(12)
    gs_forward_csr(L, L.diagonal(), x, b)
    assert np.allclose(L_dense @ x, b)


def test_symgs_dbsr_matches_csr(reordered_2d, rng):
    csr, dbsr = reordered_2d
    diag = csr.diagonal()
    b = rng.standard_normal(csr.n_rows)
    x1 = rng.standard_normal(csr.n_rows)
    x2 = x1.copy()
    symgs_csr(csr, diag, x1, b)
    symgs_dbsr(dbsr, diag, x2, b)
    assert np.allclose(x1, x2)


def test_symgs_dbsr_matches_csr_3d(reordered_3d, rng):
    csr, dbsr = reordered_3d
    diag = csr.diagonal()
    b = rng.standard_normal(csr.n_rows)
    x1 = np.zeros(csr.n_rows)
    x2 = np.zeros(csr.n_rows)
    for _ in range(3):  # multiple sweeps stay in lockstep
        symgs_csr(csr, diag, x1, b)
        symgs_dbsr(dbsr, diag, x2, b)
        assert np.allclose(x1, x2)


def test_backward_then_forward_is_symmetric_smoother(problem_2d, rng):
    """SYMGS error propagation matrix is symmetric in the A-inner
    product; spot check via residual monotonicity."""
    A = problem_2d.matrix
    b = problem_2d.rhs
    x = rng.standard_normal(problem_2d.n)
    prev = np.linalg.norm(b - A.matvec(x))
    for _ in range(5):
        symgs_csr(A, A.diagonal(), x, b)
        cur = np.linalg.norm(b - A.matvec(x))
        assert cur <= prev * 1.0001
        prev = cur


def test_fixed_point_is_solution(problem_2d):
    """SYMGS leaves the exact solution unchanged."""
    A = problem_2d.matrix
    x = problem_2d.exact.copy()
    symgs_csr(A, A.diagonal(), x, problem_2d.rhs)
    assert np.allclose(x, problem_2d.exact)
