"""The standing check suite `repro bench all` evaluates.

Two families:

* **perf** checks — machine-dependent scalars (kernel seconds, cache
  hit rates) judged against ``references/<machine-id>.json`` with
  asymmetric tolerances. Timings get a tight-ish upper bound (a
  regression) and a very loose lower bound (faster is suspicious only
  when extreme); rates invert.
* **gate** checks — machine-independent invariants the emitters
  already compute (bitwise identity, recovery rates, admission
  behaviour). Gates need no reference file and fail identically on
  every host.

Names are stable identifiers: they key the reference files, so rename
one only with a reference migration.
"""

from __future__ import annotations

from .checks import PerfCheck

#: Wide-but-real timing band: flag a 2x slowdown, tolerate wobble.
_TIME = {"lower": -0.9, "upper": 1.0, "better": "lower"}
#: Rates are tight: deterministic workloads barely move them.
_RATE = {"lower": -0.05, "upper": 0.10, "better": "higher"}


def default_checks() -> list:
    """Fresh list of the standing checks (callers may extend)."""
    return [
        # -- runtime kernels ------------------------------------------------
        PerfCheck("runtime.sptrsv_lower.seconds", "runtime",
                  "kernels.sptrsv_dbsr_lower.seconds", **_TIME),
        PerfCheck("runtime.sptrsv_upper.seconds", "runtime",
                  "kernels.sptrsv_dbsr_upper.seconds", **_TIME),
        PerfCheck("runtime.spmv_dbsr.seconds", "runtime",
                  "kernels.spmv_dbsr.seconds", **_TIME),
        PerfCheck("runtime.symgs_dbsr.seconds", "runtime",
                  "kernels.symgs_dbsr.seconds", **_TIME),
        PerfCheck("runtime.spmv_dbsr.gather_free", "runtime",
                  "kernels.spmv_dbsr.counts.ops.vgather",
                  kind="gate", equals=0),
        # -- serving --------------------------------------------------------
        PerfCheck("serve.solve.seconds", "serve",
                  "phases.solve.seconds", **_TIME),
        PerfCheck("serve.compile.seconds", "serve",
                  "phases.compile.seconds", **_TIME),
        PerfCheck("serve.cache.hit_rate", "serve",
                  "cache.hit_rate", **_RATE),
        PerfCheck("serve.amortized_setup.seconds", "serve",
                  "amortization.amortized_setup_seconds_per_request",
                  **_TIME),
        PerfCheck("serve.batch.bitwise", "serve",
                  "batch_scaling.all_bitwise_equal", kind="gate"),
        PerfCheck("serve.batch.value_bytes_decreasing", "serve",
                  "batch_scaling.value_bytes_per_solve_decreasing",
                  kind="gate"),
        # -- ILU serving ----------------------------------------------------
        PerfCheck("ilu.cold_compile.seconds", "ilu",
                  "repack.cold_compile_seconds", **_TIME),
        PerfCheck("ilu.refresh.seconds", "ilu",
                  "repack.refresh_seconds_mean", **_TIME),
        PerfCheck("ilu.cache.hit_rate", "ilu",
                  "cache.hit_rate", **_RATE),
        PerfCheck("ilu.repack.amortized", "ilu",
                  "repack.refresh_le_half_cold", kind="gate"),
        PerfCheck("ilu.repack.bitwise", "ilu",
                  "repack.repack_bitwise_equals_cold", kind="gate"),
        PerfCheck("ilu.rung.bitwise", "ilu",
                  "repack.apply_bitwise_equals_csr_rung", kind="gate"),
        PerfCheck("ilu.sibling.isolated", "ilu",
                  "sibling_isolation.isolated", kind="gate"),
        PerfCheck("ilu.service.no_failures", "ilu",
                  "service.failed", kind="gate", equals=0),
        # -- chaos ----------------------------------------------------------
        PerfCheck("chaos.recovery_rate", "chaos",
                  "recovery_rate", kind="gate", equals=1.0),
        PerfCheck("chaos.bit_identical_rate", "chaos",
                  "bit_identical_rate", kind="gate", equals=1.0),
        PerfCheck("chaos.breaker_opened", "chaos",
                  "circuit_breaker.breaker_opened", kind="gate"),
        PerfCheck("chaos.breaker_fails_fast", "chaos",
                  "circuit_breaker.fails_fast_when_open", kind="gate"),
        # -- trace ----------------------------------------------------------
        PerfCheck("trace.n_spans", "trace", "n_spans",
                  lower=-0.1, upper=0.1, better=None),
        # -- gateway --------------------------------------------------------
        PerfCheck("gateway.ok", "gateway", "ok", kind="gate"),
        PerfCheck("gateway.admission.rejected", "gateway",
                  "admission.rejected", kind="gate"),
        PerfCheck("gateway.streaming.partial_first", "gateway",
                  "streaming.partial_before_complete", kind="gate"),
        # -- gateway chaos --------------------------------------------------
        PerfCheck("gateway_chaos.ok", "gateway-chaos", "ok",
                  kind="gate"),
        PerfCheck("gateway_chaos.crash_recovery", "gateway-chaos",
                  "crash_storm.recovery_rate", kind="gate",
                  equals=1.0),
        PerfCheck("gateway_chaos.hedge_bitwise", "gateway-chaos",
                  "hedging.bitwise", kind="gate"),
    ]
