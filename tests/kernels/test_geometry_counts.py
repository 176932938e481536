"""The one DBSR count model: closed forms over real or estimated shapes.

``dbsr_geometry_counts`` prices an ``(op, k)`` call from the grid and
stencil alone, for the gateway's admission estimate and the autotuner's
roofline ranking. It must evaluate exactly the closed form a compiled
plan reports, and its structure estimate must keep its measured bias.
"""

import os
import subprocess
import sys

import pytest

from repro.grids.grid import StructuredGrid
from repro.grids.stencils import stencil_by_name
from repro.kernels import counts
from repro.kernels.counts import (
    dbsr_geometry_counts,
    dbsr_geometry_shape,
)
from repro.serve.ilu_plan import compile_ilu_plan
from repro.serve.plan import PlanConfig, compile_plan
from repro.serve.service import SERVICE_OPS
from repro.simd.counters import counter_to_dict

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

GRID = StructuredGrid((8, 8, 8))
CONFIG = PlanConfig(bsize=8, n_workers=2)


@pytest.fixture(scope="module", params=["7pt", "27pt"])
def plans(request):
    st = request.param
    return (st, compile_plan(GRID, st, CONFIG),
            compile_ilu_plan(GRID, st, CONFIG))


def _swept(solve, ilu, op):
    """The matrix a plan sweeps for ``op``."""
    return {"lower": solve.lower, "upper": solve.upper,
            "ilu_apply": ilu.factors.matrix}.get(op, solve.dbsr)


@pytest.mark.parametrize("k", [1, 8])
@pytest.mark.parametrize("op", SERVICE_OPS)
def test_geometry_path_with_real_counts_equals_plan_closed_form(
        plans, op, k, monkeypatch):
    """Fed a compiled plan's tile and block-row counts, the geometry
    path reproduces ``plan.op_counts`` field for field — so every
    count formula and byte width is the one the plans report."""
    st, solve, ilu = plans
    m = _swept(solve, ilu, op)
    estimate = counts.dbsr_geometry_shape

    def real_counts(*args, **kwargs):
        return estimate(*args, **kwargs)._replace(n_tiles=m.n_tiles,
                                                  brow=m.brow)

    monkeypatch.setattr(counts, "dbsr_geometry_shape", real_counts)
    got = dbsr_geometry_counts(GRID, stencil_by_name(st), op,
                               CONFIG.bsize, k=k)
    plan = ilu if op == "ilu_apply" else solve
    assert counter_to_dict(got) == counter_to_dict(plan.op_counts(op, k))


def test_geometry_estimate_under_counts_within_measured_band():
    """Estimated / compiled counts over 40 plans: tiles read 0.49-0.95
    and block-rows 0.75-1.00. The estimate never over-counts: VBMC
    pads whole virtual blocks per color, and boundary tiles are only
    partly filled."""
    tile_ratios, brow_ratios = [], []
    for st in ("7pt", "27pt"):
        stencil = stencil_by_name(st)
        for nx in (8, 12, 16, 24):
            grid = StructuredGrid((nx,) * 3)
            for b in (4, 8, 16, 32, 64):
                plan = compile_plan(grid, st,
                                    PlanConfig(bsize=b, n_workers=2))
                tri = dbsr_geometry_shape(grid, stencil, "lower", b)
                full = dbsr_geometry_shape(grid, stencil, "spmv", b)
                tile_ratios += [tri.n_tiles / plan.lower.n_tiles,
                                tri.n_tiles / plan.upper.n_tiles,
                                full.n_tiles / plan.dbsr.n_tiles]
                brow_ratios += [tri.brow / plan.lower.brow,
                                full.brow / plan.dbsr.brow]
    assert len(brow_ratios) == 80
    assert 0.45 <= min(tile_ratios) and max(tile_ratios) <= 0.96
    assert 0.75 <= min(brow_ratios) and max(brow_ratios) <= 1.0


def test_geometry_counts_charge_padding():
    grid = StructuredGrid((8, 8, 8))
    st = stencil_by_name("7pt")
    # 512 points over 2 colors = 256 rows/color: bsize 64 pads
    # nothing, but an uneven bsize like 24 must charge padded rows.
    even = dbsr_geometry_counts(grid, st, "lower", 64)
    uneven = dbsr_geometry_counts(grid, st, "lower", 24)
    assert even.bytes_vector > 0
    padded_rows_per_color = 264 - 256  # ceil(256/24)*24 - 256
    assert uneven.vdiv == pytest.approx(
        (512 + 2 * padded_rows_per_color) / 24, abs=1)


def test_unknown_op_rejected():
    with pytest.raises(ValueError):
        dbsr_geometry_counts(GRID, stencil_by_name("7pt"), "solve", 8)


def test_roofline_ranking_loads_no_serving_layer():
    """The autotuner's model reaches the closed forms without importing
    the gateway or the serving stack."""
    script = (
        "import sys\n"
        "import repro.kernels.counts\n"
        "from repro.grids.grid import StructuredGrid\n"
        "from repro.grids.stencils import stencil_by_name\n"
        "from repro.simd.autotune import rank_bsizes_roofline\n"
        "from repro.simd.machine import KUNPENG_920\n"
        "rank_bsizes_roofline(StructuredGrid((8, 8, 8)),\n"
        "                     stencil_by_name('7pt'), KUNPENG_920,\n"
        "                     [4, 8, 16], n_workers=2)\n"
        "print(' '.join(m for m in sys.modules\n"
        "               if m.startswith(('repro.gateway', 'repro.serve'))))\n"
    )
    env = dict(os.environ,
               PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
