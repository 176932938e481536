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


# Inherited seals of ILU repacks ----------------------------------------------

_ILU_VALUE_ARTIFACTS = {"matrix", "ilu_factors", "ilu_diag"}


def _ilu_parent_and_snapshot():
    from repro.serve.ilu_plan import compile_ilu_plan

    parent = compile_ilu_plan(StructuredGrid((5, 5, 5)), "27pt",
                              PlanConfig(bsize=8))
    rng = np.random.default_rng(0)
    values = parent.values_src * (
        1.0 + 0.05 * rng.uniform(-1.0, 1.0, parent.values_src.shape))
    return parent, values


def _spy_digests(monkeypatch):
    from repro.resilience import guardrails

    made = []
    real = guardrails._digest

    def spy(*arrays):
        made.append(real(*arrays))
        return made[-1]

    monkeypatch.setattr(guardrails, "_digest", spy)
    return made


def test_ilu_seal_keeps_structure_apart_from_values():
    from repro.serve.ilu_plan import compile_ilu_plan

    plan = compile_ilu_plan(StructuredGrid((6, 6, 6)), "27pt",
                            PlanConfig(bsize=4))
    assert set(plan.integrity) == {
        "ordering.old_to_new", "matrix.pattern", "matrix", "ilu_pattern",
        "ilu_factors", "ilu_dia_ptr", "ilu_diag", "scatter"}


def test_repack_digests_only_its_values(monkeypatch):
    from repro.serve.ilu_plan import repack_ilu_plan, value_digest

    parent, values = _ilu_parent_and_snapshot()
    made = _spy_digests(monkeypatch)
    fresh = repack_ilu_plan(parent, values, value_digest(values))
    assert len(made) == len(_ILU_VALUE_ARTIFACTS)
    assert {n for n, d in fresh.integrity.items() if d in made} \
        == _ILU_VALUE_ARTIFACTS
    for name in set(parent.integrity) - _ILU_VALUE_ARTIFACTS:
        assert fresh.integrity[name] == parent.integrity[name], name
    # The inherited digests are true of the repack's own bytes.
    validate_plan(fresh, level="integrity")


def test_shared_artifact_swapped_for_an_equal_copy_is_redigested(
        monkeypatch):
    """Inheritance is by identity, never equality: an equal copy is
    digested afresh (and, holding the same bytes, digests the same)."""
    import dataclasses

    from repro.serve.ilu_plan import repack_ilu_plan, value_digest

    parent, values = _ilu_parent_and_snapshot()
    fresh = repack_ilu_plan(parent, values, value_digest(values))
    twin = dataclasses.replace(fresh,
                               csr_scatter=fresh.csr_scatter.copy())
    made = _spy_digests(monkeypatch)
    seal_plan(twin, parent=parent)
    assert len(made) == len(_ILU_VALUE_ARTIFACTS) + 1
    assert twin.integrity["scatter"] in made
    assert twin.integrity == fresh.integrity


def test_scatter_corrupted_after_the_parent_seal_fails_the_repack():
    """An in-range rewrite of a shared scatter map is structurally
    silent; the repack inherits the digest sealed before it, so the
    corruption cannot be sealed in."""
    from repro.serve.ilu_plan import repack_ilu_plan, value_digest

    parent, values = _ilu_parent_and_snapshot()
    real = np.flatnonzero(parent.csr_scatter >= 0)
    i, j = real[0], real[1]
    parent.csr_scatter[[i, j]] = parent.csr_scatter[[j, i]]
    fresh = repack_ilu_plan(parent, values, value_digest(values))
    validate_plan(fresh)  # structurally silent
    with pytest.raises(PlanValidationError, match="digest mismatch") \
            as ei:
        validate_plan(fresh, level="integrity")
    assert ei.value.artifact == "scatter"


@pytest.mark.parametrize("rung", ["dbsr", "csr"])
def test_ilu_rung_scopes_cover_the_unsplit_bytes(monkeypatch, rung):
    """Each ILU rung still checks every array it checked when the
    operator and the factors were one artifact each."""
    from repro.resilience import fallback, guardrails

    plan, _ = _ilu_parent_and_snapshot()
    scopes = []
    monkeypatch.setattr(fallback, "check_integrity",
                        lambda p, artifacts=None: scopes.append(artifacts))
    fallback.FallbackChain()._validate_rung(plan, rung)
    arts = guardrails._plan_artifacts(plan)
    covered = [id(a) for name in scopes[0] for a in arts[name]]
    f = plan.factors.matrix
    unsplit = [plan.ordering.old_to_new, arts["ilu_diag"][0], f.blk_ptr,
               f.blk_ind, f.blk_offset, f.values, plan.factors.dia_ptr]
    if rung != "dbsr":
        unsplit += [plan.matrix.indptr, plan.matrix.indices,
                    plan.matrix.data]
    assert sorted(covered) == sorted(id(a) for a in unsplit)
