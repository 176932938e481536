"""`bench all`: merged report, regression exit, fault canary."""

import json
from pathlib import Path

import pytest

from repro.regress import PerfCheck, default_checks, run_bench_all
from repro.regress.bench_all import BENCH_ALL_SCHEMA, summarize
from repro.regress.references import store_references
from repro.regress.registry import BenchEmitter

REPO_ROOT = Path(__file__).resolve().parents[2]
SCHEMA_PATH = Path(__file__).with_name("bench_all.schema.json")


def _stub_schema(tmp_path, schema_id):
    path = tmp_path / f"{schema_id.replace('/', '_')}.schema.json"
    path.write_text(json.dumps({
        "type": "object",
        "required": ["schema", "value"],
        "properties": {"schema": {"const": schema_id}},
    }))
    return str(path)


def _stub_registry(tmp_path):
    def make(name, value, exclusive=False):
        def collect(seed=2024, scale=1):
            return {"schema": f"stub/{name}/v1",
                    "value": value * scale, "seed": seed}

        return BenchEmitter(
            name=name,
            out_default=str(tmp_path / f"BENCH_{name}.json"),
            schema_path=_stub_schema(tmp_path, f"stub/{name}/v1"),
            collect=collect, quick_kwargs={"scale": 1},
            exclusive=exclusive)

    return {"alpha": make("alpha", 1.0),
            "beta": make("beta", 2.0),
            "gamma": make("gamma", 3.0, exclusive=True)}


def _stub_checks():
    return [PerfCheck(f"{name}.value", name, "value", lower=-0.5,
                      upper=0.5, better="lower")
            for name in ("alpha", "beta", "gamma")]


def _run(tmp_path, **kwargs):
    kwargs.setdefault("registry", _stub_registry(tmp_path))
    kwargs.setdefault("checks", _stub_checks())
    kwargs.setdefault("references_dir", tmp_path / "refs")
    kwargs.setdefault("autotune", False)
    kwargs.setdefault("out", None)
    kwargs.setdefault("emit_individual", False)
    kwargs.setdefault("machine_id", "stub-1c-000000")
    return run_bench_all(**kwargs)


def test_merged_report_structure(tmp_path):
    report = _run(tmp_path)
    assert report["schema"] == BENCH_ALL_SCHEMA
    assert set(report["reports"]) == {"alpha", "beta", "gamma"}
    assert all(v == "valid" for v in report["validation"].values())
    # No references yet: perf checks are reported, not failed.
    assert all(c["status"] == "no_reference"
               for c in report["checks"])
    assert report["regressions"] == []
    assert report["ok"]
    assert report["machine"]["id"] == "stub-1c-000000"


def test_only_and_skip(tmp_path):
    report = _run(tmp_path, only=["alpha", "beta"], skip=["beta"])
    assert set(report["reports"]) == {"alpha"}
    # Checks for absent reports are dropped, not failed.
    assert [c["name"] for c in report["checks"]] == ["alpha.value"]


def test_unknown_only_raises(tmp_path):
    with pytest.raises(KeyError):
        _run(tmp_path, only=["alpha", "zzz"])


def test_update_then_clean_then_regression(tmp_path):
    captured = _run(tmp_path, update_references=True)
    assert all(c["status"] == "captured"
               for c in captured["checks"])
    clean = _run(tmp_path)
    assert clean["ok"] and not clean["regressions"]
    assert all(c["status"] == "pass" for c in clean["checks"])

    # Perturb one emitter beyond +50%: exit signal names the check.
    registry = _stub_registry(tmp_path)
    slow = {"beta": BenchEmitter(
        name="beta",
        out_default=registry["beta"].out_default,
        schema_path=registry["beta"].schema_path,
        collect=lambda seed=2024, scale=1: {
            "schema": "stub/beta/v1", "value": 4.0, "seed": seed})}
    regressed = _run(tmp_path, registry={**registry, **slow})
    assert not regressed["ok"]
    assert regressed["regressions"] == ["beta.value"]
    assert "REGRESSION beta.value" in summarize(regressed)


def test_ratchet_via_update_never_loosens(tmp_path):
    store_references(tmp_path / "refs", "stub-1c-000000", "full",
                     {"alpha.value": 0.5, "beta.value": 2.0,
                      "gamma.value": 3.0})
    _run(tmp_path, update_references=True)
    doc = json.loads(
        (tmp_path / "refs" / "stub-1c-000000.json").read_text())
    # alpha measured 1.0 > stored 0.5 (lower-better): keeps 0.5.
    assert doc["values"]["full"]["alpha.value"] == 0.5
    assert doc["values"]["full"]["beta.value"] == 2.0


def test_schema_invalid_report_clears_ok(tmp_path):
    registry = _stub_registry(tmp_path)
    bad = {"alpha": BenchEmitter(
        name="alpha",
        out_default=registry["alpha"].out_default,
        schema_path=registry["alpha"].schema_path,
        collect=lambda seed=2024, scale=1: {
            "schema": "stub/alpha/v1"})}  # missing "value"
    report = _run(tmp_path, registry={**registry, **bad},
                  checks=[])
    assert not report["ok"]
    assert "missing top-level key" in report["validation"]["alpha"]


def test_emit_artifacts(tmp_path):
    out = tmp_path / "BENCH_all.json"
    _run(tmp_path, out=str(out), emit_individual=True)
    merged = json.loads(out.read_text())
    assert merged["schema"] == BENCH_ALL_SCHEMA
    for name in ("alpha", "beta", "gamma"):
        assert (tmp_path / f"BENCH_{name}.json").is_file()


def test_quick_mode_references_are_separate(tmp_path):
    _run(tmp_path, update_references=True)              # full
    _run(tmp_path, quick=True, update_references=True)  # quick
    doc = json.loads(
        (tmp_path / "refs" / "stub-1c-000000.json").read_text())
    assert set(doc["values"]) == {"full", "quick"}


def _gated_report(name, path, bad):
    """A report passing every default check of emitter ``name``
    except the gate on ``path``, which reads ``bad``."""
    report = {"schema": f"stub/{name}/v1", "value": 0.0}
    for check in default_checks():
        if check.report != name:
            continue
        value = (1.0 if check.kind == "perf"
                 else True if check.equals is None else check.equals)
        if check.path == path:
            value = bad
        node = report
        *parents, leaf = check.path.split(".")
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    return report


@pytest.mark.parametrize("name,check,path,bad", [
    ("serve", "serve.batch.value_bytes_decreasing",
     "batch_scaling.value_bytes_per_solve_decreasing", False),
    ("ilu", "ilu.service.no_failures", "service.failed", 1),
    ("chaos", "chaos.breaker_fails_fast",
     "circuit_breaker.fails_fast_when_open", False),
])
def test_former_subcommand_exit_gates_are_checks(tmp_path, name, check,
                                                  path, bad):
    """Each gate the removed per-bench subcommands enforced only in
    their exit code is a named default check of `bench all`."""
    registry = {name: BenchEmitter(
        name=name, out_default=str(tmp_path / f"BENCH_{name}.json"),
        schema_path=_stub_schema(tmp_path, f"stub/{name}/v1"),
        collect=lambda seed=2024: _gated_report(name, path, bad))}
    report = run_bench_all(
        registry=registry, references_dir=tmp_path / "refs",
        autotune=False, out=None, emit_individual=False,
        machine_id="stub-1c-000000")
    assert report["validation"] == {name: "valid"}
    assert report["ok"] is False
    assert report["regressions"] == [check]


def test_committed_bench_all_is_schema_valid():
    """The golden merged artifact validates via schema_check."""
    from repro.observe.schema_check import validate_report

    bench_all = REPO_ROOT / "BENCH_all.json"
    assert bench_all.is_file(), "BENCH_all.json must be committed"
    report = json.loads(bench_all.read_text())
    validate_report(report, str(SCHEMA_PATH))
    assert set(report["reports"]) == {
        "runtime", "serve", "ilu", "chaos", "trace", "gateway",
        "gateway-chaos"}
    assert report["ok"]
    auto = report["autotune"]
    assert auto["gates"]["picks_match"]
    assert auto["gates"]["pruned_measures_at_most_2"]
    assert auto["compile_reduction"] > 0


def test_committed_bench_trace_artifact():
    """Satellite: BENCH_trace.json is committed like the other six."""
    from repro.observe.schema_check import validate_bench_trace

    path = REPO_ROOT / "BENCH_trace.json"
    assert path.is_file(), "BENCH_trace.json must be committed"
    validate_bench_trace(
        json.loads(path.read_text()),
        str(REPO_ROOT / "tests/observe/bench_trace.schema.json"))


@pytest.mark.bench
def test_committed_references_pass_clean():
    """`bench all --quick` against the committed baselines stays green
    (CI semantics: ci-default references, loose tolerances)."""
    report = run_bench_all(
        quick=True, out=None, emit_individual=False,
        references_dir=str(REPO_ROOT / "references"),
        machine_id="ci-default", tolerance_scale=3.0)
    assert report["config"]["references_source"] == "ci-default"
    assert report["regressions"] == []
    assert report["ok"], summarize(report)


@pytest.mark.chaos
def test_injected_delay_fault_trips_named_check(tmp_path):
    """Acceptance canary: a synthetic kernel delay must exit nonzero
    with the offending check named, against references captured clean
    moments before."""
    common = dict(quick=True, only=["serve"], autotune=False,
                  out=None, emit_individual=False,
                  references_dir=tmp_path,
                  machine_id="canary-1c-000000")
    clean = run_bench_all(update_references=True, **common)
    assert clean["ok"]
    slowed = run_bench_all(fault="kernel_delay", **common)
    assert not slowed["ok"]
    assert "serve.solve.seconds" in slowed["regressions"]
    named = [c for c in slowed["checks"]
             if c["name"] == "serve.solve.seconds"]
    assert named[0]["status"] == "fail"
    assert "outside" in named[0]["message"]


def test_unknown_fault_rejected(tmp_path):
    with pytest.raises(ValueError):
        _run(tmp_path, fault="bitrot")
