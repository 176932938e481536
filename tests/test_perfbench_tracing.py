"""The benchmark's layer tracer must still find everything it wraps.

``perfbench/tracing.py`` patches functions and methods by name,
reading each original from its owner's ``__dict__``. A rename in
``repro`` would otherwise only fail in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_exists_in_its_owner():
    tracer = _load_tracing().LayerTracer()
    try:
        # install() reads every original as owner.__dict__[attr].
        tracer.install()
        patches = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patches
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, (owner, attr)


@pytest.mark.parametrize("name", ["build_ilu0_schedule",
                                  "ilu0_factorize_dbsr",
                                  "ilu0_refactorize_dbsr"])
def test_ilu_plan_keeps_the_traced_ilu_names(name):
    import repro.serve.ilu_plan as ilu_plan

    assert callable(ilu_plan.__dict__[name])
