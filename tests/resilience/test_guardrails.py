"""Structural validators and integrity digests."""

import numpy as np
import pytest

from repro.grids.grid import StructuredGrid
from repro.resilience.errors import PlanValidationError
from repro.resilience.guardrails import (
    check_integrity,
    seal_plan,
    validate_diag,
    validate_permutation,
    validate_plan,
)
from repro.serve.plan import PlanConfig, compile_plan

pytestmark = pytest.mark.chaos


def _fresh_plan():
    return compile_plan(StructuredGrid((6, 6, 6)), "27pt",
                        PlanConfig(bsize=4))


def test_clean_plan_validates_at_both_levels():
    plan = _fresh_plan()
    validate_plan(plan)
    validate_plan(plan, level="integrity")


def test_compile_seals_integrity_digests():
    plan = _fresh_plan()
    assert set(plan.integrity) == {"ordering.old_to_new", "matrix",
                                   "dbsr", "lower", "upper", "diag"}
    assert all(len(d) == 64 for d in plan.integrity.values())


def test_permutation_out_of_range():
    with pytest.raises(PlanValidationError, match="out of range"):
        validate_permutation(np.array([0, 1, 99]), 3)


def test_permutation_duplicate_image():
    with pytest.raises(PlanValidationError, match="not a bijection"):
        validate_permutation(np.array([0, 1, 1]), 8)


def test_diag_zero_rejected():
    with pytest.raises(PlanValidationError, match="zero diagonal"):
        validate_diag(np.array([1.0, 0.0, 2.0]))


def test_nan_value_caught_structurally():
    plan = _fresh_plan()
    plan.lower.values.reshape(-1)[3] = np.nan
    with pytest.raises(PlanValidationError, match="non-finite"):
        validate_plan(plan)


def test_bad_block_index_caught_structurally():
    plan = _fresh_plan()
    plan.lower.blk_ind[0] = plan.lower.n_cols
    with pytest.raises(PlanValidationError, match="out of range"):
        validate_plan(plan)


def test_non_monotone_blk_ptr_caught():
    plan = _fresh_plan()
    plan.dbsr.blk_ptr[1] = plan.dbsr.blk_ptr[2] + 1
    with pytest.raises(PlanValidationError, match="monotone"):
        validate_plan(plan)


def test_triangularity_violation_caught():
    plan = _fresh_plan()
    # Move a lower tile onto/above the diagonal of its block row.
    brow = np.searchsorted(plan.lower.blk_ptr, 1, side="right") - 1
    plan.lower.blk_ind[0] = min(brow + 1,
                                plan.lower.n_cols // plan.lower.bsize - 1)
    plan.lower.blk_offset[0] = 0
    with pytest.raises(PlanValidationError):
        validate_plan(plan)


def test_integrity_catches_silent_bitflip():
    """A finite-value bit-flip passes structural checks but not digests."""
    plan = _fresh_plan()
    flat = plan.lower.values.reshape(-1)
    bits = flat[5:6].view(np.uint64)
    bits ^= np.uint64(1 << 52)
    validate_plan(plan)  # structurally silent
    with pytest.raises(PlanValidationError, match="digest mismatch"):
        validate_plan(plan, level="integrity")


def test_integrity_scope_filter():
    """A corrupt artifact outside the checked scope is not reported."""
    plan = _fresh_plan()
    plan.lower.values.reshape(-1)[0] += 1.0
    check_integrity(plan, artifacts=("matrix", "diag"))  # passes
    with pytest.raises(PlanValidationError, match="lower"):
        check_integrity(plan, artifacts=("lower",))


def test_unsealed_plan_skips_integrity():
    plan = _fresh_plan()
    plan.integrity = None
    plan.lower.values.reshape(-1)[0] += 1.0
    check_integrity(plan)  # nothing sealed -> no-op


def test_reseal_after_legitimate_change():
    plan = _fresh_plan()
    plan.diag[0] *= 1.0 + 1e-12
    with pytest.raises(PlanValidationError):
        check_integrity(plan)
    seal_plan(plan)
    check_integrity(plan)


def test_cache_verify_evicts_poisoned_plans():
    from repro.serve.cache import PlanCache

    cache = PlanCache(capacity=4)
    grid = StructuredGrid((6, 6, 6))
    config = PlanConfig(bsize=4)
    plan, _ = cache.get_or_compile(grid, "27pt", config)
    assert cache.verify() == []
    plan.diag[0] = np.nan
    bad = cache.verify()
    assert bad == [plan.fingerprint]
    assert plan.fingerprint not in cache
    assert cache.stats()["invalidations"] == 1
    # Recompile-through heals the entry.
    fresh, hit = cache.get_or_compile(grid, "27pt", config)
    assert not hit
    assert np.all(np.isfinite(fresh.diag))
