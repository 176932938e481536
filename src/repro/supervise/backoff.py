"""Capped exponential backoff: the one retry schedule of the stack.

Two callers take a :class:`Backoff`: the gateway's per-chunk retry
(``SolveGateway(retry=...)``) and the shard supervisor's restart
campaigns (``ShardSupervisor(backoff=...)``). Both sleep
``delay(attempt)`` before attempt ``attempt`` (1-based) of at most
``max_attempts``, so the longest a caller can wait is the closed form
:meth:`Backoff.max_total`.

There is no jitter. Jitter decorrelates many restarters that hammer
one shared remote service; here the only restarter is one in-process
supervisor per gateway, building shards locally, so restarts in
lockstep overload nothing — and a deterministic schedule lets tests
and benches assert backoff budgets exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class Backoff:
    """``delay(attempt) = min(cap, base * 2**(attempt - 1))``.

    Parameters
    ----------
    base:
        Delay before the first attempt (seconds).
    cap:
        Upper bound on any one delay (seconds).
    max_attempts:
        Attempts the schedule allows: retries of one chunk, or restart
        attempts of one campaign. ``0`` allows none.
    """

    base: float = 0.05
    cap: float = 2.0
    max_attempts: int = 3

    def __post_init__(self):
        if not self.base > 0:
            raise ValueError(f"base must be > 0, got {self.base}")
        if self.cap < self.base:
            raise ValueError(f"cap {self.cap} < base {self.base}")
        if self.max_attempts < 0:
            raise ValueError(
                f"max_attempts must be >= 0, got {self.max_attempts}")

    def delay(self, attempt: int) -> float:
        """Sleep before attempt ``attempt`` (1-based), capped."""
        check_positive(attempt, "attempt")
        return min(self.cap, self.base * 2 ** (attempt - 1))

    def max_total(self) -> float:
        """Worst-case total sleep across all ``max_attempts`` attempts.

        The first ``u`` delays double from ``base`` until the cap
        binds, the rest are ``cap``:
        ``base * (2**u - 1) + (max_attempts - u) * cap``.
        """
        u = min(self.max_attempts,
                int(math.log2(self.cap / self.base)) + 1)
        return self.base * (2 ** u - 1) + (self.max_attempts - u) * self.cap
