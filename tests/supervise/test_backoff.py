"""Backoff: the one capped exponential schedule, and its budget."""

import pytest

from repro.supervise.backoff import Backoff

pytestmark = pytest.mark.fast


def test_first_delay_is_base_then_bounded():
    b = Backoff(base=0.05, cap=2.0, max_attempts=50)
    assert b.delay(1) == 0.05
    delays = [b.delay(a) for a in range(1, 51)]
    assert all(0.05 <= d <= 2.0 for d in delays)
    assert delays == sorted(delays)  # never shrinks
    assert delays[-1] == 2.0


def test_max_total_is_the_closed_form_budget_bound():
    assert Backoff(base=0.05, cap=0.2, max_attempts=4).max_total() \
        == pytest.approx(0.05 + 0.1 + 0.2 + 0.2)
    for base, cap, attempts in [
            (0.05, 0.2, 1),
            (0.02, 0.1, 5),      # cap binds between doublings
            (0.01, 0.05, 3),     # never reaches the cap
            (0.5, 0.5, 3),       # cap == base
            (0.01, 1.0, 0)]:     # no attempts, no sleep
        b = Backoff(base=base, cap=cap, max_attempts=attempts)
        total = sum(b.delay(a) for a in range(1, attempts + 1))
        assert b.max_total() == pytest.approx(total), (base, cap)


def test_validation():
    for bad in ({"base": 0.0}, {"base": -0.1}, {"base": 0.5, "cap": 0.1}):
        with pytest.raises(ValueError):
            Backoff(**bad)


def test_one_type_serves_retry_and_restart():
    """The gateway's retry and the supervisor's restart campaigns take
    the same type; no other backoff class exists."""
    import repro.supervise as supervise
    from repro.supervise.supervisor import ShardSupervisor

    sup = ShardSupervisor(backoff=Backoff(base=0.01, max_attempts=2))
    assert sup.backoff.max_attempts == 2
    assert ShardSupervisor().backoff == Backoff()
    assert not hasattr(supervise, "RetryPolicy")
    assert not hasattr(supervise, "DecorrelatedJitterBackoff")
