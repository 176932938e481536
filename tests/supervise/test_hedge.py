"""The gateway's per-chunk policies: the retry schedule (a
:class:`~repro.supervise.backoff.Backoff`) and HedgePolicy — delays,
cold-start, clamping."""

import pytest

from repro.supervise.backoff import Backoff
from repro.supervise.hedge import HedgePolicy

pytestmark = pytest.mark.fast


def test_retry_delay_is_capped_exponential():
    r = Backoff(base=0.02, cap=0.1, max_attempts=5)
    assert r.delay(1) == pytest.approx(0.02)
    assert r.delay(2) == pytest.approx(0.04)
    assert r.delay(3) == pytest.approx(0.08)
    assert r.delay(4) == pytest.approx(0.1)   # capped
    assert r.delay(10) == pytest.approx(0.1)


def test_retry_validation():
    with pytest.raises(ValueError):
        Backoff(max_attempts=-1)
    with pytest.raises(ValueError):
        Backoff().delay(0)
    assert Backoff(max_attempts=0).max_attempts == 0  # no retries


def test_hedge_is_cold_until_min_samples():
    h = HedgePolicy(min_samples=3)
    assert h.delay() is None
    h.record(0.1)
    h.record(0.1)
    assert h.delay() is None
    h.record(0.1)
    assert h.delay() is not None


def test_hedge_delay_tracks_mean_plus_spread():
    h = HedgePolicy(alpha=1.0, spread_factor=3.0, min_samples=1,
                    min_delay=0.001, max_delay=10.0)
    h.record(0.1)  # dev EWMA seeded at 0 on the first sample
    assert h.delay() == pytest.approx(0.1)
    h.record(0.2)  # alpha=1: mean=0.2, dev=|0.2-0.1|=0.1
    assert h.delay() == pytest.approx(0.2 + 3.0 * 0.1)


def test_hedge_delay_is_clamped_both_ways():
    h = HedgePolicy(alpha=1.0, min_samples=1, min_delay=0.05,
                    max_delay=0.5)
    h.record(1e-6)
    assert h.delay() == pytest.approx(0.05)
    h.record(100.0)
    assert h.delay() == pytest.approx(0.5)


def test_hedge_validation():
    with pytest.raises(ValueError):
        HedgePolicy(min_samples=0)
    with pytest.raises(ValueError):
        HedgePolicy(min_delay=0.0)
    with pytest.raises(ValueError):
        HedgePolicy(min_delay=0.5, max_delay=0.1)


def test_stats_expose_the_threshold():
    h = HedgePolicy(min_samples=1)
    h.record(0.2)
    s = h.stats()
    assert s["samples"] == 1
    assert s["mean_seconds"] == pytest.approx(0.2)
    assert s["delay_seconds"] is not None
