"""Gateway bench report: gates, schema conformance, CLI wiring."""

import json
from pathlib import Path

import pytest

from repro.gateway.bench import collect_bench_gateway
from repro.observe.schema_check import TraceSchemaError, validate_report

pytestmark = pytest.mark.fast

SCHEMA = str(Path(__file__).with_name("bench_gateway.schema.json"))


@pytest.fixture(scope="module")
def report():
    return collect_bench_gateway(nx=5, n_requests=12, k_stream=4)


def test_report_passes_all_gates(report):
    assert report["ok"] is True
    assert all(report["gates"].values()), report["gates"]


def test_report_matches_checked_in_schema(report):
    validate_report(report, schema_path=SCHEMA)


def test_schema_check_rejects_mutants(report):
    bad = json.loads(json.dumps(report))
    bad["schema"] = "dbsr-repro/bench-gateway/v0"
    with pytest.raises(TraceSchemaError):
        validate_report(bad, schema_path=SCHEMA)
    bad = json.loads(json.dumps(report))
    del bad["admission"]
    with pytest.raises(TraceSchemaError):
        validate_report(bad, schema_path=SCHEMA)


def test_identity_covers_both_strategies_and_backends(report):
    cases = report["identity"]["cases"]
    assert {c["strategy"] for c in cases} == {"dbsr", "sell"}
    assert len({c["backend"] for c in cases}) >= 2
    assert all(c["bitwise"] for c in cases)


def test_rejection_carries_estimate_breakdown(report):
    rej = report["admission"]["rejection"]
    assert rej is not None and rej["reason"] == "deadline"
    est = rej["estimate"]
    assert est["total_seconds"] > 0
    assert est["source"] in ("ewma", "model")
    assert report["admission"]["compile_delta"] == 0


def test_scaling_round_trip_with_no_lost_columns(report):
    scaling = report["scaling"]
    actions = [e["action"] for e in scaling["events"]]
    assert "scale_up" in actions and "scale_down" in actions
    assert scaling["peak_shards"] > scaling["min_shards"]
    assert scaling["final_shards"] == scaling["min_shards"]
    svc = report["service"]
    assert svc["completed_columns"] == svc["accepted_columns"]
    assert svc["failed_columns"] == 0
    assert svc["expired_columns"] == 0


def test_cli_gateway_bench_writes_valid_report(tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    rc = main(["bench", "all", "--only", "gateway", "--quick",
               "--no-autotune"])
    assert rc == 0
    report = json.loads((tmp_path / "BENCH_gateway.json").read_text())
    assert report["admission"]["rejected"] is True
    assert report["scaling"]["events"]
    validate_report(report, schema_path=SCHEMA)
