"""``numba`` tier: JIT-compiled DBSR hot loops.

The paper's core claim is that DBSR's gather-free contiguous-load
sweeps (Alg. 2/4) vectorize into machine code; this tier actually
compiles them. The kernels are written as plain-Python lane loops and
``numba.njit``-compiled on first use — **without** ``fastmath``, and
with every multiply/accumulate split into two statements, so LLVM
cannot contract them into FMAs. That keeps the floating-point op
sequence identical to the numpy tiers: multiply, round, then
add/subtract, round. Bit-identity with the ``numpy-counted`` twin is
therefore exact (pinned by ``tests/backends`` when numba is present).

numba is an **optional** dependency: :func:`numba_available` probes for
it once, and :func:`repro.backends.resolve_backend` falls back to
``numpy-fast`` (with a warning) when it is missing. The pure-Python
kernel bodies below stay importable and executable either way, so the
algorithmic bit-identity tests run even where numba is absent.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import KernelBackend

_NUMBA_PROBE: list | None = None
_JIT_CACHE: dict = {}


def numba_available() -> bool:
    """Probe (once) whether a working numba import is available."""
    global _NUMBA_PROBE
    if _NUMBA_PROBE is None:
        try:
            import numba  # noqa: F401
            _NUMBA_PROBE = [True]
        except Exception:  # pragma: no cover - environment-dependent
            _NUMBA_PROBE = [False]
    return _NUMBA_PROBE[0]


# Kernel bodies -----------------------------------------------------------
#
# Plain functions, jitted lazily by _kernels(). Scalar lane loops only:
# no fancy indexing (the gather lint runs over this module), and each
# multiply kept in its own statement so contraction cannot change the
# rounding sequence relative to the numpy tiers.

def _sptrsv_dbsr_body(blk_ptr, anchors, values, Bk, Xp, diag, use_diag,
                      forward):
    k = Bk.shape[0]
    brow = blk_ptr.shape[0] - 1
    bs = values.shape[1]
    step = 1 if forward else -1
    start = 0 if forward else brow - 1
    for ii in range(brow):
        i = start + step * ii
        row0 = i * bs
        for j in range(k):
            acc = Bk[j, row0:row0 + bs].copy()
            for t in range(blk_ptr[i], blk_ptr[i + 1]):
                a = anchors[t]
                for lane in range(bs):
                    prod = values[t, lane] * Xp[j, a + lane]
                    acc[lane] = acc[lane] - prod
            if use_diag:
                for lane in range(bs):
                    acc[lane] = acc[lane] / diag[row0 + lane]
            for lane in range(bs):
                Xp[j, bs + row0 + lane] = acc[lane]


def _spmv_dbsr_body(blk_ptr, anchors, values, Xp, Yk):
    k = Xp.shape[0]
    brow = blk_ptr.shape[0] - 1
    bs = values.shape[1]
    for i in range(brow):
        row0 = i * bs
        for j in range(k):
            acc = np.zeros(bs, dtype=values.dtype)
            for t in range(blk_ptr[i], blk_ptr[i + 1]):
                a = anchors[t]
                for lane in range(bs):
                    prod = values[t, lane] * Xp[j, a + lane]
                    acc[lane] = acc[lane] + prod
            for lane in range(bs):
                Yk[j, row0 + lane] = acc[lane]


def _symgs_dbsr_body(blk_ptr, anchors, values, Bk, Xp, diag):
    k = Bk.shape[0]
    brow = blk_ptr.shape[0] - 1
    bs = values.shape[1]
    for sweep in range(2):
        forward = sweep == 0
        step = 1 if forward else -1
        start = 0 if forward else brow - 1
        for ii in range(brow):
            i = start + step * ii
            row0 = i * bs
            for j in range(k):
                rowsum = np.zeros(bs, dtype=values.dtype)
                for t in range(blk_ptr[i], blk_ptr[i + 1]):
                    a = anchors[t]
                    for lane in range(bs):
                        prod = values[t, lane] * Xp[j, a + lane]
                        rowsum[lane] = rowsum[lane] + prod
                for lane in range(bs):
                    num = Bk[j, row0 + lane] - rowsum[lane]
                    corr = num / diag[row0 + lane]
                    Xp[j, bs + row0 + lane] = \
                        Xp[j, bs + row0 + lane] + corr


def _ilu_apply_dbsr_body(blk_ptr, dia_ptr, anchors, values, Bk, Yp, Zp):
    k = Bk.shape[0]
    brow = blk_ptr.shape[0] - 1
    bs = values.shape[1]
    # Forward: (L + I) Y = B over the strictly-lower tiles.
    for i in range(brow):
        row0 = i * bs
        for j in range(k):
            acc = Bk[j, row0:row0 + bs].copy()
            for t in range(blk_ptr[i], dia_ptr[i]):
                a = anchors[t]
                for lane in range(bs):
                    prod = values[t, lane] * Yp[j, a + lane]
                    acc[lane] = acc[lane] - prod
            for lane in range(bs):
                Yp[j, bs + row0 + lane] = acc[lane]
    # Backward: (D + U) Z = Y over the diagonal + upper tiles.
    for i in range(brow - 1, -1, -1):
        row0 = i * bs
        for j in range(k):
            acc = Yp[j, bs + row0:bs + row0 + bs].copy()
            for t in range(dia_ptr[i] + 1, blk_ptr[i + 1]):
                a = anchors[t]
                for lane in range(bs):
                    prod = values[t, lane] * Zp[j, a + lane]
                    acc[lane] = acc[lane] - prod
            for lane in range(bs):
                acc[lane] = acc[lane] / values[dia_ptr[i], lane]
            for lane in range(bs):
                Zp[j, bs + row0 + lane] = acc[lane]


_BODIES = {
    "sptrsv_dbsr": _sptrsv_dbsr_body,
    "spmv_dbsr": _spmv_dbsr_body,
    "symgs_dbsr": _symgs_dbsr_body,
    "ilu_apply_dbsr": _ilu_apply_dbsr_body,
}


def _kernels(jit: bool = True) -> dict:
    """The kernel table — jitted when numba is present.

    ``jit=False`` returns the interpreted bodies; the parity tests use
    it to pin the loop nests' numerics on numba-less environments.
    """
    if not jit or not numba_available():
        return dict(_BODIES)
    if not _JIT_CACHE:
        import numba

        for name, body in _BODIES.items():
            # No fastmath: contraction or reassociation would break the
            # bit-identity contract with the numpy tiers.
            _JIT_CACHE[name] = numba.njit(fastmath=False)(body)
    return dict(_JIT_CACHE)


class NumbaBackend(KernelBackend):
    """JIT execution of the plan ops (requires numba).

    ``jit=False`` (tests only) runs the same loop bodies interpreted.
    """

    name = "numba"

    def __init__(self, jit: bool = True):
        self._jit = jit

    @classmethod
    def is_available(cls) -> bool:
        return numba_available()

    # Buffer prep: RHS-major padded buffers so each lane loop walks one
    # contiguous row, one dtype for the whole kernel (numpy's
    # promotion, applied once).
    @staticmethod
    def _dbsr_args(matrix, dtype):
        blk_ptr = np.ascontiguousarray(matrix.blk_ptr, dtype=np.int64)
        anchors = np.ascontiguousarray(matrix.anchors + matrix.bsize,
                                       dtype=np.int64)
        values = np.ascontiguousarray(matrix.values, dtype=dtype)
        return blk_ptr, anchors, values

    def sptrsv_dbsr_multi(self, matrix, Bp, diag, forward):
        kern = _kernels(self._jit)["sptrsv_dbsr"]
        B = np.asarray(Bp)
        n, k = B.shape
        bs = matrix.bsize
        dtype = np.result_type(matrix.values, B)
        blk_ptr, anchors, values = self._dbsr_args(matrix, dtype)
        Xp = np.zeros((k, n + 2 * bs), dtype=dtype)
        Bk = np.ascontiguousarray(B.T, dtype=dtype)
        use_diag = diag is not None
        d = np.ascontiguousarray(
            diag if use_diag else np.empty(0), dtype=dtype)
        kern(blk_ptr, anchors, values, Bk, Xp, d, use_diag, forward)
        return np.ascontiguousarray(Xp[:, bs:bs + n].T)

    def spmv_dbsr_multi(self, matrix, Bp):
        kern = _kernels(self._jit)["spmv_dbsr"]
        X = np.asarray(Bp)
        n, k = X.shape
        bs = matrix.bsize
        dtype = np.result_type(matrix.values, X)
        blk_ptr, anchors, values = self._dbsr_args(matrix, dtype)
        Xp = np.zeros((k, matrix.n_cols + 2 * bs), dtype=dtype)
        Xp[:, bs:bs + matrix.n_cols] = X.T
        Yk = np.zeros((k, matrix.brow * bs), dtype=dtype)
        kern(blk_ptr, anchors, values, Xp, Yk)
        return np.ascontiguousarray(Yk[:, :matrix.n_rows].T)

    def symgs_dbsr_multi(self, matrix, diag, X, Bp):
        kern = _kernels(self._jit)["symgs_dbsr"]
        B = np.asarray(Bp)
        n, k = B.shape
        bs = matrix.bsize
        dtype = np.result_type(matrix.values, X)
        blk_ptr, anchors, values = self._dbsr_args(matrix, dtype)
        Xp = np.zeros((k, n + 2 * bs), dtype=dtype)
        Xp[:, bs:bs + n] = X.T
        Bk = np.ascontiguousarray(B.T, dtype=dtype)
        d = np.ascontiguousarray(diag, dtype=dtype)
        kern(blk_ptr, anchors, values, Bk, Xp, d)
        X[:] = Xp[:, bs:bs + n].T
        return X

    def ilu_apply_dbsr_multi(self, factors, Bp):
        kern = _kernels(self._jit)["ilu_apply_dbsr"]
        m = factors.matrix
        B = np.asarray(Bp)
        n, k = B.shape
        bs = m.bsize
        dtype = np.result_type(m.values, B)
        blk_ptr, anchors, values = self._dbsr_args(m, dtype)
        dia_ptr = np.ascontiguousarray(factors.dia_ptr, dtype=np.int64)
        Bk = np.ascontiguousarray(B.T, dtype=dtype)
        Yp = np.zeros((k, n + 2 * bs), dtype=dtype)
        Zp = np.zeros((k, n + 2 * bs), dtype=dtype)
        kern(blk_ptr, dia_ptr, anchors, values, Bk, Yp, Zp)
        return np.ascontiguousarray(Zp[:, bs:bs + n].T)
