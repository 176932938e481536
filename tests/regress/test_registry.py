"""The bench-emitter registry: completeness and presets."""

from pathlib import Path

import pytest

from repro.regress.registry import (
    EMITTER_ORDER,
    REGISTRY,
    BenchEmitter,
    get_emitter,
    run_emitter,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

EXPECTED_EMITTERS = {"runtime", "serve", "chaos", "trace", "gateway",
                     "ilu", "gateway-chaos"}


def test_registry_covers_all_emitters():
    assert set(REGISTRY) == EXPECTED_EMITTERS
    assert set(EMITTER_ORDER) == EXPECTED_EMITTERS


def test_collector_specs_import():
    for emitter in REGISTRY.values():
        fn = emitter.collector()
        assert callable(fn), emitter.name


def test_quick_kwargs_are_accepted_by_collectors():
    import inspect

    for emitter in REGISTRY.values():
        params = inspect.signature(emitter.collector()).parameters
        for key in emitter.quick_kwargs:
            assert key in params, f"{emitter.name}: {key}"
        if emitter.supports_seed:
            assert "seed" in params, emitter.name
        if emitter.supports_backend:
            assert "backend" in params, emitter.name


def test_schema_paths_exist():
    for emitter in REGISTRY.values():
        assert (REPO_ROOT / emitter.schema_path).is_file(), \
            emitter.schema_path


def test_out_defaults_unique():
    outs = [e.out_default for e in REGISTRY.values()]
    assert len(outs) == len(set(outs))


def test_global_state_emitters_are_exclusive():
    # Installing the tracer / arming the fault injector is global;
    # these three must never run concurrently with anything.
    exclusive = {n for n, e in REGISTRY.items() if e.exclusive}
    assert exclusive == {"trace", "chaos", "gateway-chaos"}


def test_get_emitter_unknown():
    with pytest.raises(KeyError):
        get_emitter("zzz")


def test_run_emitter_with_callable_and_overrides():
    seen = {}

    def fake(seed=0, nx=1, backend="numpy-fast"):
        seen.update(seed=seed, nx=nx, backend=backend)
        return {"ok": True}

    table = {"fake": BenchEmitter(
        name="fake", out_default="x.json",
        schema_path="nope.json", collect=fake,
        quick_kwargs={"nx": 2}, supports_backend=True)}
    report = run_emitter("fake", quick=True, seed=7,
                         backend="numpy-counted", registry=table,
                         overrides={"nx": 3})
    assert report == {"ok": True}
    assert seen == {"seed": 7, "nx": 3, "backend": "numpy-counted"}


def test_seed_backend_not_forwarded_when_unsupported():
    seen = {}

    def fake(**kwargs):
        seen.update(kwargs)
        return {}

    table = {"fake": BenchEmitter(
        name="fake", out_default="x.json",
        schema_path="nope.json", collect=fake,
        supports_seed=False, supports_backend=False)}
    run_emitter("fake", seed=7, backend="numba", registry=table)
    assert seen == {}

