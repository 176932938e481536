"""Differential tests for roofline-pruned bsize autotuning."""

import pytest

from repro.grids.grid import StructuredGrid
from repro.grids.stencils import stencil_by_name
from repro.serve.plan import PlanConfig, compile_plan
from repro.simd.autotune import (
    MEASURE_TOP,
    autotune_bsize,
    autotune_bsize_result,
    modeled_sptrsv_seconds,
    rank_bsizes_roofline,
    sptrsv_model_counter,
)
from repro.simd.machine import INTEL_XEON, KUNPENG_920

#: Seed grids the differential pins (7pt keeps several bsizes
#: feasible even at these sizes, so pruning has real choices).
SEED_GRIDS = ((8, "7pt"), (9, "7pt"))


def _result(nx, stencil, machine=KUNPENG_920, **kwargs):
    return autotune_bsize_result(
        StructuredGrid((nx,) * 3), stencil_by_name(stencil), machine,
        n_workers=2, **kwargs)


# -- model internals -------------------------------------------------------

def test_model_counter_charges_padding():
    grid = StructuredGrid((8, 8, 8))
    st = stencil_by_name("7pt")
    # 512 points over 2 colors = 256 rows/color: bsize 64 pads
    # nothing, but an uneven bsize like 24 must charge padded rows.
    even = sptrsv_model_counter(grid, st, 64)
    uneven = sptrsv_model_counter(grid, st, 24)
    assert even.bytes_vector > 0
    padded_rows_per_color = 264 - 256  # ceil(256/24)*24 - 256
    assert uneven.vdiv == pytest.approx(
        (512 + 2 * padded_rows_per_color) / 24, abs=1)


def test_modeled_seconds_positive_and_finite():
    grid = StructuredGrid((8, 8, 8))
    st = stencil_by_name("27pt")
    for b in (2, 4, 8, 16):
        s = modeled_sptrsv_seconds(grid, st, b, KUNPENG_920,
                                   n_workers=2)
        assert 0 < s < 1


def test_rank_is_permutation_and_deterministic():
    grid = StructuredGrid((8, 8, 8))
    st = stencil_by_name("7pt")
    ranked = rank_bsizes_roofline(grid, st, KUNPENG_920,
                                  [2, 4, 8, 16], n_workers=2)
    assert sorted(ranked) == [2, 4, 8, 16]
    assert ranked == rank_bsizes_roofline(grid, st, KUNPENG_920,
                                          [16, 8, 4, 2], n_workers=2)


# -- differential: pruned pick == exhaustive pick --------------------------

@pytest.mark.bench
@pytest.mark.parametrize("nx,stencil", SEED_GRIDS)
def test_roofline_matches_exhaustive_on_seed_grids(nx, stencil):
    exhaustive = _result(nx, stencil, prune="exhaustive")
    roofline = _result(nx, stencil, prune="roofline")
    assert roofline.bsize == exhaustive.bsize
    assert roofline.measured_candidates <= MEASURE_TOP
    assert exhaustive.measured_candidates == len(exhaustive.feasible)
    assert roofline.feasible == exhaustive.feasible


def test_differential_with_injected_measurements():
    """Deterministic variant: with a synthetic cost surface, pruned
    and exhaustive must agree whenever the model ranks the true
    argmin into the measured top-2."""
    costs = {2: 5.0, 4: 2.0, 8: 1.0, 16: 3.0}
    exhaustive = _result(8, "7pt", prune="exhaustive",
                         measure_fn=costs.__getitem__)
    assert exhaustive.measured_candidates == len(exhaustive.feasible)
    assert exhaustive.bsize == min(exhaustive.measured,
                                   key=costs.__getitem__)
    roofline = _result(8, "7pt", prune="roofline",
                       measure_fn=costs.__getitem__)
    assert set(roofline.measured) == set(roofline.ranked[:2])
    assert roofline.bsize == min(roofline.measured,
                                 key=costs.__getitem__)


def test_measured_ties_break_to_larger_bsize():
    result = _result(8, "7pt", prune="exhaustive",
                     measure_fn=lambda b: 1.0)
    assert result.bsize == max(result.feasible)


def test_timed_repeats_interleave_so_one_stall_cannot_flip_the_pick(
        monkeypatch):
    """A host stall spanning several consecutive sweeps lands on at
    most one repeat of each candidate, so best-of still sees every
    candidate's true cost (timed back to back, a 3-sweep stall would
    cover all three repeats of the first candidate)."""
    from repro.simd import autotune

    costs = {16: 1.0, 8: 2.0}
    clock = [0.0]
    calls = []

    def sweep(b):
        stalled = len(calls) < 3  # the stall covers the first 3 sweeps
        calls.append(b)
        clock[0] += costs[b] + (100.0 if stalled else 0.0)

    monkeypatch.setattr(autotune.time, "perf_counter", lambda: clock[0])
    best = autotune._best_of_round_robin(
        {b: (lambda b=b: sweep(b)) for b in costs}, repeats=3)
    assert calls == [16, 8] * 3
    assert best == costs


# -- legacy behaviour unchanged --------------------------------------------

def test_prune_none_is_legacy_largest_feasible():
    result = _result(8, "7pt", prune=None)
    assert result.bsize == max(result.feasible)
    assert result.measured == {} and result.ranked == []
    assert autotune_bsize(StructuredGrid((8,) * 3),
                          stencil_by_name("7pt"), KUNPENG_920,
                          n_workers=2) == result.bsize


def test_infeasible_grid_still_picks_1():
    # Intel AVX-512 lanes are too wide for a tiny 27pt grid.
    for prune in (None, "roofline", "exhaustive"):
        result = _result(4, "27pt", machine=INTEL_XEON, prune=prune)
        assert result.feasible == []
        assert result.bsize == 1
        assert result.measured == {}


def test_unknown_prune_mode_rejected():
    with pytest.raises(ValueError):
        _result(8, "7pt", prune="vibes")


# -- serving integration ---------------------------------------------------

def test_plan_config_validates_prune():
    assert PlanConfig(autotune_prune="roofline").autotune_prune == \
        "roofline"
    with pytest.raises(ValueError):
        PlanConfig(autotune_prune="vibes")


def test_prune_not_in_structural_fingerprint():
    from repro.serve.plan import structural_fingerprint

    grid = StructuredGrid((6, 6, 6))
    base = structural_fingerprint(grid, "27pt", PlanConfig())
    pruned = structural_fingerprint(
        grid, "27pt", PlanConfig(autotune_prune="roofline"))
    assert base == pruned


@pytest.mark.bench
def test_compile_plan_roofline_prune_matches_legacy_pick():
    grid = StructuredGrid((8, 8, 8))
    legacy = compile_plan(grid, "7pt", PlanConfig(n_workers=2))
    pruned = compile_plan(grid, "7pt",
                          PlanConfig(n_workers=2,
                                     autotune_prune="roofline"))
    assert pruned.bsize == legacy.bsize
    assert pruned.autotuned and legacy.autotuned
