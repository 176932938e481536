"""Tests for the SELL SYMGS kernel and the instrumented SYMGS twins.

The DBSR twin is the counted block kernel run at ``k = 1``.
"""

import numpy as np
import pytest

from repro.formats.sell import SELLMatrix
from repro.kernels.counts import symgs_dbsr_counts
from repro.kernels.symgs import symgs_csr, symgs_dbsr
from repro.kernels.symgs_sell import symgs_sell, symgs_sell_counted
from repro.serve.batch import symgs_dbsr_multi_counted
from repro.simd.engine import VectorEngine


def _counted_symgs_k1(dbsr, diag, x, b, engine):
    """Counted DBSR SYMGS on one vector (``k = 1``), in place on ``x``."""
    symgs_dbsr_multi_counted(dbsr, diag, x[:, None], b[:, None], engine)
    return x


@pytest.fixture(scope="module")
def setup(request):
    pair = request.getfixturevalue("reordered_3d")
    csr, dbsr = pair
    sell = SELLMatrix(csr, chunk=dbsr.bsize, sigma=1)
    return csr, dbsr, sell


def test_symgs_sell_matches_csr(setup, rng):
    csr, dbsr, sell = setup
    diag = csr.diagonal()
    b = rng.standard_normal(csr.n_rows)
    x1 = np.zeros(csr.n_rows)
    x2 = np.zeros(csr.n_rows)
    for _ in range(3):
        symgs_csr(csr, diag, x1, b)
        symgs_sell(sell, diag, x2, b)
        assert np.allclose(x1, x2)


def test_symgs_sell_matches_dbsr(setup, rng):
    csr, dbsr, sell = setup
    diag = csr.diagonal()
    b = rng.standard_normal(csr.n_rows)
    x1 = np.zeros(csr.n_rows)
    x2 = np.zeros(csr.n_rows)
    symgs_dbsr(dbsr, diag, x1, b)
    symgs_sell(sell, diag, x2, b)
    assert np.allclose(x1, x2)


def test_symgs_sell_rejects_sigma_sorted(setup, rng):
    csr, dbsr, sell = setup
    sorted_sell = SELLMatrix(csr, chunk=dbsr.bsize,
                             sigma=4 * dbsr.bsize)
    with pytest.raises(ValueError):
        symgs_sell(sorted_sell, csr.diagonal(),
                   np.zeros(csr.n_rows), np.zeros(csr.n_rows))


def test_symgs_sell_counted_matches_and_gathers(setup, rng):
    csr, dbsr, sell = setup
    diag = csr.diagonal()
    b = rng.standard_normal(csr.n_rows)
    x1 = np.zeros(csr.n_rows)
    x2 = np.zeros(csr.n_rows)
    symgs_sell(sell, diag, x1, b)
    eng = VectorEngine(sell.chunk)
    symgs_sell_counted(sell, diag, x2, b, eng)
    assert np.allclose(x1, x2)
    assert eng.counter.vgather > 0
    assert eng.counter.bytes_gathered > 0


def test_symgs_dbsr_counted_matches_fast_twin(setup, rng):
    csr, dbsr, sell = setup
    diag = csr.diagonal()
    b = rng.standard_normal(csr.n_rows)
    x1 = np.zeros(csr.n_rows)
    x2 = np.zeros(csr.n_rows)
    symgs_dbsr(dbsr, diag, x1, b)
    eng = VectorEngine(dbsr.bsize)
    _counted_symgs_k1(dbsr, diag, x2, b, eng)
    assert np.array_equal(x1, x2)


def test_symgs_dbsr_counted_matches_closed_form(setup, rng):
    csr, dbsr, sell = setup
    diag = csr.diagonal()
    b = rng.standard_normal(csr.n_rows)
    eng = VectorEngine(dbsr.bsize)
    _counted_symgs_k1(dbsr, diag, np.zeros(csr.n_rows), b, eng)
    expect = symgs_dbsr_counts(dbsr)
    got = eng.counter
    for f in ("vload", "vstore", "vfma", "vdiv", "vadd", "vgather",
              "bytes_values", "bytes_index", "bytes_vector",
              "bytes_gathered"):
        assert getattr(got, f) == getattr(expect, f), f


def test_dbsr_symgs_traffic_below_sell(setup, rng):
    """The Fig. 8 story in counter form: DBSR moves fewer gathered
    bytes (zero) and less index data per sweep than SELL."""
    csr, dbsr, sell = setup
    diag = csr.diagonal()
    b = rng.standard_normal(csr.n_rows)
    e1 = VectorEngine(dbsr.bsize)
    _counted_symgs_k1(dbsr, diag, np.zeros(csr.n_rows), b, e1)
    e2 = VectorEngine(sell.chunk)
    symgs_sell_counted(sell, diag, np.zeros(csr.n_rows), b, e2)
    assert e1.counter.bytes_gathered == 0
    assert e2.counter.bytes_gathered > 0
    assert e1.counter.bytes_index < e2.counter.bytes_index
