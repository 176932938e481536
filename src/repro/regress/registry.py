"""Unified registry of every bench emitter in the repo.

Seven subsystems each own a ``BENCH_*.json`` emitter; this registry is
the single table describing all of them — how to import the collector
lazily, where its artifact lands, which schema validates it, and the
*full*/*quick* kwarg presets. ``repro bench all`` (``--only <name>``
for a subset) is the one entry point that drives them.

Emitters marked ``exclusive`` mutate process-global state while they
run (the trace emitter installs the global tracer; the chaos emitters
arm the global fault injector) and must never execute concurrently
with any other emitter.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field

DEFAULT_SEED = 2024


@dataclass(frozen=True)
class BenchEmitter:
    """One bench emitter: collector + artifact + presets."""

    name: str
    out_default: str
    schema_path: str
    # Lazy "module:function" spec, imported at call time so the CLI
    # stays import-light; tests may pass a plain callable instead.
    collect: object = None
    full_kwargs: dict = field(default_factory=dict)
    quick_kwargs: dict = field(default_factory=dict)
    supports_seed: bool = True
    supports_backend: bool = False
    exclusive: bool = False

    def collector(self):
        if callable(self.collect):
            return self.collect
        module_name, _, func_name = self.collect.partition(":")
        module = importlib.import_module(module_name)
        return getattr(module, func_name)

    def kwargs(self, quick: bool = False) -> dict:
        return dict(self.quick_kwargs if quick else self.full_kwargs)


REGISTRY: dict = {}


def register(emitter: BenchEmitter) -> BenchEmitter:
    if emitter.name in REGISTRY:
        raise ValueError(f"duplicate bench emitter {emitter.name!r}")
    REGISTRY[emitter.name] = emitter
    return emitter


register(BenchEmitter(
    name="runtime",
    out_default="BENCH_runtime.json",
    schema_path="tests/runtime/bench_runtime.schema.json",
    collect="repro.runtime.kernel_bench:collect_bench_runtime",
    quick_kwargs={"nx": 6, "repeats": 1},
    supports_backend=True,
))
register(BenchEmitter(
    name="serve",
    out_default="BENCH_serve.json",
    schema_path="tests/serve/bench_serve.schema.json",
    collect="repro.serve.bench:collect_bench_serve",
    quick_kwargs={"nx": 6, "n_requests": 12},
    supports_backend=True,
))
register(BenchEmitter(
    name="chaos",
    out_default="BENCH_chaos.json",
    schema_path="tests/resilience/bench_chaos.schema.json",
    collect="repro.resilience.chaos:collect_bench_chaos",
    quick_kwargs={"nx": 6, "quick": True},
    exclusive=True,  # arms the process-global fault injector
))
register(BenchEmitter(
    name="trace",
    out_default="BENCH_trace.json",
    schema_path="tests/observe/bench_trace.schema.json",
    collect="repro.observe.report:collect_bench_trace",
    quick_kwargs={"nx": 6, "k": 2},
    exclusive=True,  # installs the process-global tracer
))
register(BenchEmitter(
    name="gateway",
    out_default="BENCH_gateway.json",
    schema_path="tests/gateway/bench_gateway.schema.json",
    collect="repro.gateway.bench:collect_bench_gateway",
    quick_kwargs={"nx": 5, "n_requests": 10, "k_stream": 4},
))
register(BenchEmitter(
    name="ilu",
    out_default="BENCH_ilu.json",
    schema_path="tests/serve/bench_ilu.schema.json",
    collect="repro.serve.ilu_bench:collect_bench_ilu",
    quick_kwargs={"nx": 6, "n_values": 2, "n_requests": 8},
    supports_backend=True,
))
register(BenchEmitter(
    name="gateway-chaos",
    out_default="BENCH_gateway_chaos.json",
    schema_path="tests/supervise/bench_gateway_chaos.schema.json",
    collect="repro.supervise.bench:collect_bench_gateway_chaos",
    quick_kwargs={"nx": 4, "n_requests": 6},
    exclusive=True,  # injects faults through the global injector
))

#: Canonical run order: exclusive emitters interleave fine
#: sequentially; the parallel runner serialises them explicitly.
EMITTER_ORDER = tuple(REGISTRY)


def get_emitter(name: str) -> BenchEmitter:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown bench emitter {name!r}; "
            f"known: {', '.join(REGISTRY)}") from None


def run_emitter(name: str, quick: bool = False,
                seed: int | None = None,
                backend: str | None = None,
                overrides: dict | None = None,
                registry: dict | None = None) -> dict:
    """Import the collector lazily and run one emitter's preset.

    ``seed``/``backend`` apply only where the emitter supports them;
    ``overrides`` (last) win over the preset kwargs. ``registry``
    swaps in a scoped emitter table for tests.
    """
    table = REGISTRY if registry is None else registry
    emitter = table[name] if name in table else get_emitter(name)
    kwargs = emitter.kwargs(quick)
    if seed is not None and emitter.supports_seed:
        kwargs["seed"] = seed
    if backend is not None and emitter.supports_backend:
        kwargs["backend"] = backend
    if overrides:
        kwargs.update(overrides)
    return emitter.collector()(**kwargs)

