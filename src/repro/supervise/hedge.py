"""Straggler hedging: when to duplicate a slow chunk.

:class:`HedgePolicy` is pure bookkeeping the gateway consults per chunk
attempt; the gateway owns the actual asyncio choreography. It decides
*when a chunk has straggled long enough* to duplicate onto a second
shard. It learns the chunk latency distribution online with two EWMAs
(mean and absolute deviation) and derives a p95-style hedge threshold
``mean + spread_factor * dev`` — the classic "tied requests"
tail-cutting scheme (Dean & Barroso, *The Tail at Scale*). Duplicating work is only safe because the batched
kernels are bit-identical across shards: whichever attempt finishes
first, the caller observes the same bits, so first-result-wins changes
latency and nothing else.
"""

from __future__ import annotations

from repro.gateway.estimator import Ewma
from repro.utils.validation import check_positive


class HedgePolicy:
    """EWMA-p95 straggler detector: when to duplicate a slow chunk.

    Tracks chunk latency with a mean EWMA and a mean-absolute-deviation
    EWMA; the hedge delay is ``mean + spread_factor * dev`` clamped to
    ``[min_delay, max_delay]``. Until ``min_samples`` observations have
    arrived :meth:`delay` returns ``None`` — no hedging on a cold
    distribution, where the threshold would be guesswork.
    """

    def __init__(self, alpha: float = 0.3, spread_factor: float = 3.0,
                 min_samples: int = 3, min_delay: float = 0.01,
                 max_delay: float = 2.0):
        check_positive(min_samples, "min_samples")
        if not min_delay > 0:
            raise ValueError(
                f"min_delay must be > 0, got {min_delay}")
        if max_delay < min_delay:
            raise ValueError(
                f"max_delay {max_delay} < min_delay {min_delay}")
        self.spread_factor = float(spread_factor)
        self.min_samples = int(min_samples)
        self.min_delay = float(min_delay)
        self.max_delay = float(max_delay)
        self._mean = Ewma(alpha)
        self._dev = Ewma(alpha)

    def record(self, seconds: float) -> None:
        """Feed one *winning* chunk latency (losers are censored —
        feeding them would inflate the threshold they caused)."""
        seconds = float(seconds)
        mean = self._mean.value
        if mean is not None:
            self._dev.update(abs(seconds - mean))
        else:
            self._dev.update(0.0)
        self._mean.update(seconds)

    def delay(self) -> float | None:
        """Current hedge threshold in seconds, or ``None`` while cold."""
        if self._mean.n < self.min_samples:
            return None
        raw = self._mean.value + self.spread_factor * self._dev.value
        return min(self.max_delay, max(self.min_delay, raw))

    def stats(self) -> dict:
        return {
            "samples": self._mean.n,
            "mean_seconds": self._mean.value,
            "dev_seconds": self._dev.value,
            "delay_seconds": self.delay(),
            "spread_factor": self.spread_factor,
            "min_samples": self.min_samples,
        }
