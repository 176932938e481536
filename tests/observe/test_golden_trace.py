"""Golden-trace differential suite (the tentpole's acceptance tests).

Runs fixed-seed workloads (27-point stencil, bsize 4 and 8, DBSR /
SELL strategies, fault-forced rung descents) under a fresh tracer and
asserts three contracts:

1. **Topology** — the canonical trace (span names, nesting, attrs,
   events, attributed counts; timings and ids stripped) equals the
   checked-in golden under ``tests/observe/goldens/``.  Regenerate
   with ``pytest tests/observe -q --update-goldens`` after deliberate
   instrumentation changes, and review the golden diff like code.
2. **Attribution** — every ``plan.execute`` span carries op counts
   equal to the closed forms in :mod:`repro.kernels.counts` exactly.
3. **Differential execution** — DBSR, SELL, and ordered-CSR rungs
   produce bit-identical solutions for the same traced inputs, and a
   traced run is bit-identical to an untraced one (observability must
   never perturb the numerics).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.grids.grid import StructuredGrid
from repro.observe import trace
from repro.observe.report import canonical_trace
from repro.observe.trace import counts_dict
from repro.resilience.fallback import CircuitBreaker, FallbackChain
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.serve.cache import PlanCache
from repro.serve.plan import PlanConfig, compile_plan

GOLDEN_DIR = Path(__file__).parent / "goldens"
GRID = StructuredGrid((6, 6, 6))
STENCIL = "27pt"
OPS = ("lower", "upper", "spmv", "symgs")
SEED = 2024

PLAN_CASES = [("dbsr", 4), ("dbsr", 8), ("sell", 4)]
PLAN_IDS = [f"{s}-b{b}" for s, b in PLAN_CASES]


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    trace.uninstall()
    yield
    trace.uninstall()


def _rhs(plan):
    return np.random.default_rng(SEED).standard_normal(plan.n)


def _run_plan_case(strategy, bsize, backend="numpy-fast"):
    """Compile + run all four ops under a fresh tracer."""
    with trace.tracing() as tr:
        plan = compile_plan(GRID, STENCIL,
                            PlanConfig(bsize=bsize, strategy=strategy,
                                       backend=backend))
        b = _rhs(plan)
        results = {op: plan.execute(op, b) for op in OPS}
    return tr, plan, results


def _run_fallback_case(strategies, max_fires):
    """Force a rung descent with an injected kernel crash."""
    cache = PlanCache(capacity=4)
    with trace.tracing() as tr:
        plan, _ = cache.get_or_compile(GRID, STENCIL, PlanConfig(bsize=4))
        chain = FallbackChain(cache=cache, backoff_base=0.0,
                              breaker=CircuitBreaker(threshold=99))
        fault = FaultPlan((FaultSpec("kernel_exception",
                                     strategies=strategies,
                                     max_fires=max_fires),))
        with inject(fault):
            res = chain.execute(plan, "lower", _rhs(plan))
    return tr, plan, res


@pytest.fixture()
def golden(request):
    """Compare-or-regenerate helper for canonical-trace goldens."""
    update = request.config.getoption("--update-goldens")

    def check(name: str, canon: dict):
        # Round-trip through JSON so tuples/np scalars normalize the
        # same way the stored golden did.
        got = json.loads(json.dumps(canon, sort_keys=True))
        path = GOLDEN_DIR / f"{name}.json"
        if update:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(json.dumps(got, indent=2, sort_keys=True)
                            + "\n")
            pytest.skip(f"golden {name} regenerated")
        assert path.exists(), (
            f"missing golden {path.name}; run "
            f"pytest tests/observe --update-goldens to create it")
        assert got == json.loads(path.read_text()), (
            f"canonical trace diverged from golden {path.name}; if the "
            f"instrumentation change is deliberate, regenerate with "
            f"--update-goldens and review the diff")

    return check


# 1. Span topology ---------------------------------------------------------


@pytest.mark.parametrize("strategy,bsize", PLAN_CASES, ids=PLAN_IDS)
def test_plan_trace_matches_golden(strategy, bsize, golden):
    tr, _plan, _ = _run_plan_case(strategy, bsize)
    golden(f"plan-{strategy}-b{bsize}", canonical_trace(tr.to_dict()))


def test_counted_backend_trace_matches_golden(golden):
    """Per-backend golden: the counted tier's span topology differs
    from numpy-fast only in the ``backend`` attrs and the fingerprint
    (the requested backend is part of the structural fingerprint)."""
    tr, plan, _ = _run_plan_case("dbsr", 4, backend="numpy-counted")
    assert plan._backend().name == "numpy-counted"
    golden("plan-dbsr-b4-counted", canonical_trace(tr.to_dict()))


def test_counted_and_fast_goldens_differ_only_in_backend_and_fp():
    fast = json.loads((GOLDEN_DIR / "plan-dbsr-b4.json").read_text())
    counted = json.loads(
        (GOLDEN_DIR / "plan-dbsr-b4-counted.json").read_text())
    blob_f = json.dumps(fast, sort_keys=True)
    blob_c = json.dumps(counted, sort_keys=True)
    fp_f = fast["spans"][0]["attrs"]["fingerprint"]
    fp_c = counted["spans"][0]["attrs"]["fingerprint"]
    assert fp_f != fp_c
    normalized = blob_c.replace(fp_c, fp_f).replace(
        '"numpy-counted"', '"numpy-fast"')
    assert normalized == blob_f


def test_fallback_sell_descent_matches_golden(golden):
    tr, _plan, res = _run_fallback_case(("dbsr",), 1)
    assert (res.depth, res.rung) == (1, "sell")
    golden("fallback-sell", canonical_trace(tr.to_dict()))


def test_fallback_csr_descent_matches_golden(golden):
    tr, _plan, res = _run_fallback_case(("dbsr", "sell"), 2)
    assert (res.depth, res.rung) == (2, "csr")
    golden("fallback-csr", canonical_trace(tr.to_dict()))


def test_canonical_trace_is_run_invariant():
    """Two runs of the same seeded workload canonicalize identically
    even though raw timings and span ids differ."""
    tr1, _, _ = _run_plan_case("dbsr", 4)
    tr2, _, _ = _run_plan_case("dbsr", 4)
    d1, d2 = tr1.to_dict(), tr2.to_dict()
    # Raw traces carry wall-clock noise; the canonical form strips it.
    assert "seconds" in d1["spans"][0]
    assert "seconds" not in canonical_trace(d1)["spans"][0]
    assert canonical_trace(d1) == canonical_trace(d2)


# 2. Attributed counts equal the closed forms ------------------------------


@pytest.mark.parametrize("strategy,bsize", PLAN_CASES, ids=PLAN_IDS)
def test_span_counts_equal_closed_forms(strategy, bsize):
    tr, plan, _ = _run_plan_case(strategy, bsize)
    execs = [sp for sp in tr.walk() if sp.name == "plan.execute"]
    assert [sp.attrs["op"] for sp in execs] == list(OPS)
    for sp in execs:
        expect = plan.op_counts(sp.attrs["op"], sp.attrs["k"])
        assert sp.counts == counts_dict(expect), sp.attrs["op"]
        assert sp.counts["bsize"] == bsize


def test_fallback_sell_rung_counts_equal_closed_forms():
    from repro.kernels.counts import sptrsv_sell_counts

    tr, plan, _res = _run_fallback_case(("dbsr",), 1)
    sell_execs = [sp for sp in tr.walk()
                  if sp.name == "plan.execute"
                  and sp.attrs["strategy"] == "sell"]
    assert len(sell_execs) == 1
    arts = plan._fallback_sell  # cached by the chain's sell rung
    expect = sptrsv_sell_counts(arts["lower"], divide=True)
    assert sell_execs[0].counts == counts_dict(expect)


# 3. Differential execution ------------------------------------------------


def test_rungs_bit_identical_under_traced_inputs():
    cache = PlanCache(capacity=4)
    with trace.tracing():
        pd, _ = cache.get_or_compile(GRID, STENCIL, PlanConfig(bsize=4))
        ps, _ = cache.get_or_compile(GRID, STENCIL,
                                     PlanConfig(bsize=4, strategy="sell"))
        chain = FallbackChain(cache=cache, backoff_base=0.0)
        b = _rhs(pd)
        for op in ("lower", "upper"):
            xd = pd.execute(op, b)
            assert np.array_equal(xd, ps.execute(op, b)), op
            assert np.array_equal(
                xd, chain.execute_reference(pd, op, b)), op
        for op in ("spmv", "symgs"):
            assert np.array_equal(pd.execute(op, b),
                                  ps.execute(op, b)), op


def test_csr_descent_bitwise_equals_reference():
    tr, plan, res = _run_fallback_case(("dbsr", "sell"), 2)
    ref = FallbackChain(backoff_base=0.0).execute_reference(
        plan, "lower", _rhs(plan))
    assert np.array_equal(res.solution, ref)


def test_traced_run_bitwise_equals_untraced():
    plan = compile_plan(GRID, STENCIL, PlanConfig(bsize=4))
    b = _rhs(plan)
    untraced = {op: plan.execute(op, b) for op in OPS}
    with trace.tracing() as tr:
        traced = {op: plan.execute(op, b) for op in OPS}
    assert tr.n_spans == len(OPS)
    for op in OPS:
        assert np.array_equal(untraced[op], traced[op]), op


@pytest.mark.parametrize("strategy,bsize", PLAN_CASES, ids=PLAN_IDS)
def test_backend_tiers_bit_identical_on_golden_cases(strategy, bsize):
    """Acceptance criterion: every backend is bit-identical to the
    counted twin on every golden-trace case, pinned the same way
    traced ≡ untraced is."""
    from repro.backends.numba_backend import NumbaBackend

    _, counted_plan, counted = _run_plan_case(strategy, bsize,
                                              backend="numpy-counted")
    _, fast_plan, fast = _run_plan_case(strategy, bsize,
                                        backend="numpy-fast")
    nb = NumbaBackend(jit=False)
    b = _rhs(counted_plan)
    for op in OPS:
        assert np.array_equal(fast[op], counted[op]), op
        Bp = fast_plan.extend(b.reshape(-1, 1))
        got = fast_plan.restrict(nb.run(fast_plan, op, Bp))[:, 0]
        assert np.array_equal(got, counted[op]), op


@pytest.mark.parametrize("strategy,bsize", PLAN_CASES, ids=PLAN_IDS)
def test_jit_bit_identical_to_counted_on_golden_cases(strategy, bsize):
    """jit ≡ counted on the golden cases (requires numba)."""
    pytest.importorskip("numba")
    _, _, counted = _run_plan_case(strategy, bsize,
                                   backend="numpy-counted")
    _, jit_plan, jit = _run_plan_case(strategy, bsize, backend="numba")
    assert jit_plan._backend().name == "numba"
    for op in OPS:
        assert np.array_equal(jit[op], counted[op]), op


# 4. Zero added ops on the clean path (acceptance criterion) ---------------


@pytest.mark.parametrize("installed", [False, True],
                         ids=["tracer-absent", "tracer-installed"])
def test_counted_kernel_sees_zero_added_ops(installed, reordered_3d):
    """The instrumented vector engine must count exactly the closed
    forms whether or not a tracer is live: tracing adds no vector or
    scalar ops to the counted path (the counted block kernel at
    ``k = 1``)."""
    from repro.formats.dbsr import DBSRMatrix
    from repro.kernels.counts import sptrsv_dbsr_counts
    from repro.kernels.sptrsv_csr import split_triangular
    from repro.serve.batch import sptrsv_dbsr_lower_multi_counted
    from repro.simd.engine import VectorEngine

    csr, dbsr = reordered_3d
    L, D, _U = split_triangular(csr)
    Ld = DBSRMatrix.from_csr(L, dbsr.bsize)
    b = np.random.default_rng(SEED).standard_normal((L.n_rows, 1))
    eng = VectorEngine(dbsr.bsize)
    if installed:
        with trace.tracing():
            sptrsv_dbsr_lower_multi_counted(Ld, b, eng, diag=D)
    else:
        assert trace.active() is None
        sptrsv_dbsr_lower_multi_counted(Ld, b, eng, diag=D)
    expect = sptrsv_dbsr_counts(Ld, divide=True)
    got = eng.counter
    # Fields the counted twin models (same set the kernel suite pins);
    # tracing must not add a single op or byte to any of them.
    for f in ("vload", "vstore", "vgather", "vscatter", "vfma",
              "vdiv", "bytes_values", "bytes_index", "bytes_vector",
              "bytes_gathered"):
        assert getattr(got, f) == getattr(expect, f), f
