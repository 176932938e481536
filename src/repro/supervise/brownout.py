"""Staged overload brownout: degrade before you drop.

When the backlog grows faster than the pool can drain it, the gateway
has three choices: queue without bound (latency explodes), reject
everything (availability collapses), or **brown out** — shed load in
stages, cheapest degradation first. :class:`BrownoutController`
implements the staged policy:

``normal → degraded → shed`` (and back), driven by queue-wait
observations:

* **normal** — no intervention.
* **degraded** — halve ``stream_chunk`` (smaller dispatch units stream
  first columns sooner and interleave tenants more finely; throughput
  drops a little, tail latency a lot).
* **shed** — additionally refuse admissions from tenants whose
  fair-share weight is below ``shed_below_weight``, with a typed
  :class:`~repro.gateway.errors.BrownoutShed` carrying ``retry_after``
  — never a silent drop, and never a shed of the heavyweight tenants
  the operator priced as important.

Transitions use enter/exit **patience** (consecutive observations past
the threshold), the same observation-counted hysteresis idiom as the
pool's scaling controller, so a noisy queue cannot flap the stage.
Stages step one level at a time in both directions — recovery passes
back through ``degraded`` before reaching ``normal``.
"""

from __future__ import annotations

from repro.observe.metrics import MetricsRegistry
from repro.utils.validation import check_positive

STAGES = ("normal", "degraded", "shed")


class BrownoutController:
    """Queue-wait-driven staged degradation with hysteresis.

    Parameters
    ----------
    degrade_wait, shed_wait:
        Estimated queue-wait thresholds (seconds) for entering the
        ``degraded`` / ``shed`` stages (``shed_wait`` must be the
        larger).
    enter_patience, exit_patience:
        Consecutive observations past (resp. below) a threshold before
        the stage steps up (resp. down). Exit patience is typically
        larger: entering brownout fast and leaving it slowly prevents
        admit/shed oscillation at the boundary.
    chunk_shrink:
        Divisor applied to ``stream_chunk`` while degraded or worse.
    shed_below_weight:
        Only tenants with fair-share weight strictly below this are
        shed; heavier tenants are still admitted even in ``shed``.
    retry_after_floor:
        Lower bound on the ``retry_after`` hint (seconds).
    """

    def __init__(self, degrade_wait: float = 0.5,
                 shed_wait: float = 2.0, enter_patience: int = 2,
                 exit_patience: int = 3, chunk_shrink: int = 2,
                 shed_below_weight: float = 1.0,
                 retry_after_floor: float = 0.05):
        if not degrade_wait > 0:
            raise ValueError(
                f"degrade_wait must be > 0, got {degrade_wait}")
        if shed_wait < degrade_wait:
            raise ValueError(f"shed_wait {shed_wait} < degrade_wait "
                             f"{degrade_wait}")
        check_positive(enter_patience, "enter_patience")
        check_positive(exit_patience, "exit_patience")
        check_positive(chunk_shrink, "chunk_shrink")
        self.degrade_wait = float(degrade_wait)
        self.shed_wait = float(shed_wait)
        self.enter_patience = int(enter_patience)
        self.exit_patience = int(exit_patience)
        self.chunk_shrink = int(chunk_shrink)
        self.shed_below_weight = float(shed_below_weight)
        self.retry_after_floor = float(retry_after_floor)
        self.stage = "normal"
        self._enter_streak = 0
        self._exit_streak = 0
        self.last_wait = 0.0
        self.metrics = MetricsRegistry()
        self._observations = self.metrics.counter(
            "brownout.observations", "queue-wait samples fed")
        #: Stage-change history: ``{"from", "to", "queue_wait"}`` dicts.
        self.transitions: list[dict] = []

    def _target(self, wait: float) -> str:
        if wait >= self.shed_wait:
            return "shed"
        if wait >= self.degrade_wait:
            return "degraded"
        return "normal"

    def observe(self, queue_wait: float) -> str:
        """Feed one queue-wait estimate (seconds); returns the stage.

        The stage moves one step toward the target stage only after
        ``enter_patience`` (worsening) or ``exit_patience``
        (recovering) consecutive observations agree.
        """
        wait = float(queue_wait)
        self.last_wait = wait
        self._observations.inc()
        here = STAGES.index(self.stage)
        target = STAGES.index(self._target(wait))
        if target > here:
            self._enter_streak += 1
            self._exit_streak = 0
            if self._enter_streak >= self.enter_patience:
                self._step(here + 1, wait)
                self._enter_streak = 0
        elif target < here:
            self._exit_streak += 1
            self._enter_streak = 0
            if self._exit_streak >= self.exit_patience:
                self._step(here - 1, wait)
                self._exit_streak = 0
        else:
            self._enter_streak = 0
            self._exit_streak = 0
        return self.stage

    def _step(self, to: int, wait: float) -> None:
        frm = self.stage
        self.stage = STAGES[to]
        self.transitions.append({"from": frm, "to": self.stage,
                                 "queue_wait": wait})

    # Policy queries (the gateway consults these per admission) --------
    def effective_chunk(self, stream_chunk: int) -> int:
        """Chunk size under the current stage (shrunk when degraded)."""
        if self.stage == "normal":
            return stream_chunk
        return max(1, stream_chunk // self.chunk_shrink)

    def should_shed(self, weight: float) -> bool:
        """True when an admission of this fair-share weight must be
        refused (``shed`` stage and the tenant is below the bar)."""
        return (self.stage == "shed"
                and float(weight) < self.shed_below_weight)

    def retry_after(self, queue_wait: float | None = None) -> float:
        """Retry hint for a shed tenant: the backlog's estimated
        drain time, floored."""
        wait = self.last_wait if queue_wait is None else float(
            queue_wait)
        return max(self.retry_after_floor, wait)

    def stats(self) -> dict:
        return {
            "stage": self.stage,
            "last_queue_wait": self.last_wait,
            **self.metrics.values("brownout."),
            "transitions": list(self.transitions),
            "degrade_wait": self.degrade_wait,
            "shed_wait": self.shed_wait,
            "shed_below_weight": self.shed_below_weight,
        }
