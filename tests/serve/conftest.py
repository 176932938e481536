"""Fixtures shared by the serving-layer tests."""

import threading

import pytest


@pytest.fixture
def flight_waits(monkeypatch):
    """A semaphore released each time a caller waits on a cache flight.

    Patches :class:`repro.serve.cache.PlanCache`'s flight record so its
    ``wait()`` first releases the semaphore: acquiring it N times
    returns once N callers are parked on in-flight compiles or repacks.
    """
    from repro.serve import cache as cache_mod

    entered = threading.Semaphore(0)

    class SignallingFlight(cache_mod._Flight):
        __slots__ = ()

        def wait(self):
            entered.release()
            super().wait()

    monkeypatch.setattr(cache_mod, "_Flight", SignallingFlight)
    return entered
