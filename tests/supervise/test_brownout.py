"""BrownoutController: staged transitions, hysteresis, shed policy."""

import pytest

from repro.supervise.brownout import BrownoutController

pytestmark = pytest.mark.fast


def make(**kw):
    defaults = dict(degrade_wait=1.0, shed_wait=4.0,
                    enter_patience=2, exit_patience=2)
    defaults.update(kw)
    return BrownoutController(**defaults)


def test_stages_step_one_level_with_enter_patience():
    b = make(enter_patience=2)
    assert b.observe(10.0) == "normal"   # 1st hot sample: streak only
    assert b.observe(10.0) == "degraded"
    assert b.observe(10.0) == "degraded"  # streak restarts per step
    assert b.observe(10.0) == "shed"
    assert [t["to"] for t in b.transitions] == ["degraded", "shed"]


def test_recovery_passes_back_through_degraded():
    b = make(enter_patience=1, exit_patience=2)
    b.observe(10.0)
    b.observe(10.0)
    assert b.stage == "shed"
    assert b.observe(0.0) == "shed"       # exit patience not yet met
    assert b.observe(0.0) == "degraded"
    assert b.observe(0.0) == "degraded"
    assert b.observe(0.0) == "normal"


def test_mixed_samples_reset_both_streaks():
    b = make(enter_patience=2)
    b.observe(10.0)
    b.observe(0.0)  # calm sample wipes the enter streak
    b.observe(10.0)
    assert b.stage == "normal"
    b.observe(10.0)
    assert b.stage == "degraded"


def test_intermediate_wait_targets_degraded_not_shed():
    b = make(enter_patience=1)
    b.observe(2.0)  # >= degrade_wait, < shed_wait
    assert b.stage == "degraded"
    for _ in range(5):
        b.observe(2.0)
    assert b.stage == "degraded"  # never escalates to shed


def test_effective_chunk_shrinks_when_degraded():
    b = make(enter_patience=1, chunk_shrink=2)
    assert b.effective_chunk(8) == 8
    b.observe(2.0)
    assert b.stage == "degraded"
    assert b.effective_chunk(8) == 4
    assert b.effective_chunk(1) == 1  # never below one column
    b.observe(10.0)
    assert b.stage == "shed"
    assert b.effective_chunk(8) == 4


def test_should_shed_only_in_shed_stage_and_below_weight():
    b = make(enter_patience=1, shed_below_weight=1.0)
    assert not b.should_shed(0.5)  # normal stage spares everyone
    b.observe(10.0)
    b.observe(10.0)
    assert b.stage == "shed"
    assert b.should_shed(0.5)
    assert not b.should_shed(1.0)  # at the bar is spared
    assert not b.should_shed(2.0)


def test_retry_after_floors_and_tracks_backlog():
    b = make(retry_after_floor=0.05)
    b.observe(3.0)
    assert b.retry_after() == pytest.approx(3.0)
    assert b.retry_after(0.0) == pytest.approx(0.05)


def test_validation():
    with pytest.raises(ValueError):
        BrownoutController(degrade_wait=0.0)
    with pytest.raises(ValueError):
        BrownoutController(degrade_wait=2.0, shed_wait=1.0)
    with pytest.raises(ValueError):
        make(enter_patience=0)
    with pytest.raises(ValueError):
        make(chunk_shrink=0)


def test_stats_carry_transitions():
    b = make(enter_patience=1)
    b.observe(2.0)
    s = b.stats()
    assert s["stage"] == "degraded"
    assert s["observations"] == 1
    assert s["transitions"] == [
        {"from": "normal", "to": "degraded", "queue_wait": 2.0}]
