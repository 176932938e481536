"""Gateway chaos bench report: gates, schema conformance, CLI wiring."""

import json
from pathlib import Path

import pytest

from repro.observe.schema_check import TraceSchemaError, validate_report
from repro.supervise.bench import collect_bench_gateway_chaos

pytestmark = [pytest.mark.fast, pytest.mark.chaos]

SCHEMA = str(Path(__file__).with_name("bench_gateway_chaos.schema.json"))


@pytest.fixture(scope="module")
def report():
    return collect_bench_gateway_chaos(nx=5, n_requests=6)


def test_report_passes_all_gates(report):
    assert report["ok"] is True
    assert all(report["gates"].values()), report["gates"]


def test_report_matches_checked_in_schema(report):
    validate_report(report, schema_path=SCHEMA)


def test_schema_check_rejects_mutants(report):
    bad = json.loads(json.dumps(report))
    bad["schema"] = "dbsr-repro/bench-gateway-chaos/v0"
    with pytest.raises(TraceSchemaError):
        validate_report(bad, schema_path=SCHEMA)
    bad = json.loads(json.dumps(report))
    del bad["poison_restart"]
    with pytest.raises(TraceSchemaError):
        validate_report(bad, schema_path=SCHEMA)
    bad = json.loads(json.dumps(report))
    del bad["gates"]["hedge_winner_bit_identical"]
    with pytest.raises(TraceSchemaError):
        validate_report(bad, schema_path=SCHEMA)


def test_clean_phase_has_no_supervision_interventions(report):
    clean = report["clean"]
    assert clean["all_bitwise"] is True
    assert clean["quarantines"] == 0
    assert clean["retries"] == 0
    assert clean["sheds"] == 0
    assert clean["resolution"]["no_lost_columns"] is True


def test_crash_storm_recovers_every_column(report):
    storm = report["crash_storm"]
    assert storm["recovery_rate"] == 1.0
    assert storm["recovered"] == storm["n_requests"]
    assert storm["retries"] >= 1
    assert storm["faults_injected"] >= 1
    assert storm["resolution"]["failed_columns"] == 0


def test_poison_restart_stays_inside_backoff_budget(report):
    pr = report["poison_restart"]
    assert pr["quarantines"] >= 1
    assert pr["restarts"] >= 1
    assert pr["within_backoff_budget"] is True
    assert pr["budget_left"] >= 0
    assert pr["resolution"]["no_lost_columns"] is True


def test_hedge_winner_is_bit_identical(report):
    hedging = report["hedging"]
    assert hedging["hedges"] >= 1
    assert hedging["bitwise"] is True


def test_brownout_sheds_typed_and_recovers(report):
    b = report["brownout"]
    assert b["shed_typed"] is True
    assert b["shed_retry_after"] > 0
    assert b["premium_admitted_during_shed"] is True
    assert b["recovered_normal"] is True
    assert b["reached_shed"] is True
    assert b["resolution"]["no_lost_columns"] is True


def test_cli_gateway_chaos_bench_writes_valid_report(tmp_path,
                                                     monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    rc = main(["bench", "all", "--only", "gateway-chaos", "--quick",
               "--no-autotune"])
    assert rc == 0
    report = json.loads(
        (tmp_path / "BENCH_gateway_chaos.json").read_text())
    assert report["crash_storm"]["recovery_rate"] == 1.0
    assert report["brownout"]["transitions"]
    validate_report(report, schema_path=SCHEMA)
