"""BENCH_trace.json schema validation + trace-report helpers."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.observe.report import (
    aggregate_spans,
    canonical_trace,
    collect_bench_trace,
)
from repro.observe.schema_check import (
    REQUIRED_KEYS,
    SCHEMA_ID,
    TraceSchemaError,
    main,
    structural_errors,
    validate_bench_trace,
)

SCHEMA_PATH = Path(__file__).parent / "bench_trace.schema.json"


@pytest.fixture(scope="module")
def report():
    """One small traced workload, shared by every test here."""
    return collect_bench_trace(nx=6, k=2, n_workers=1)


def test_report_has_all_required_keys(report):
    assert structural_errors(report) == []
    for key in REQUIRED_KEYS:
        assert key in report


def test_report_passes_full_jsonschema(report):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.Draft7Validator.check_schema(schema)
    validate_bench_trace(report, schema_path=str(SCHEMA_PATH))


def test_report_is_json_serializable(report):
    assert json.loads(json.dumps(report))["schema"] == SCHEMA_ID


def test_missing_key_detected(report):
    broken = {k: v for k, v in report.items() if k != "metrics"}
    errs = structural_errors(broken)
    assert any("metrics" in e for e in errs)
    with pytest.raises(TraceSchemaError):
        validate_bench_trace(broken)


def test_wrong_schema_id_detected(report):
    broken = dict(report, schema="bogus/v0")
    assert any("schema must be" in e for e in structural_errors(broken))


def test_malformed_span_detected(report):
    broken = copy.deepcopy(report)
    del broken["trace"]["spans"][0]["name"]
    errs = structural_errors(broken)
    assert any("name" in e for e in errs)


def test_counts_shape_enforced(report):
    def walk(spans):
        for sp in spans:
            yield sp
            yield from walk(sp["children"])

    broken = copy.deepcopy(report)
    counted = [sp for sp in walk(broken["trace"]["spans"])
               if sp.get("counts")]
    assert counted, "workload must attribute counts somewhere"
    del counted[0]["counts"]["flops"]
    assert any("flops" in e for e in structural_errors(broken))


def test_schema_check_main(report, tmp_path, capsys):
    good = tmp_path / "BENCH_trace.json"
    good.write_text(json.dumps(report))
    assert main([str(good), str(SCHEMA_PATH)]) == 0
    assert "valid" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope"}))
    assert main([str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().err

    assert main([]) == 2  # usage error


# Report helpers -----------------------------------------------------------


def test_aggregate_rows_cover_expected_sites(report):
    names = {r["name"] for r in report["table"]}
    assert {"serve.drain", "serve.compile", "plan.execute"} <= names


def test_aggregate_self_time_excludes_children(report):
    rows = {r["name"]: r for r in report["table"]}
    for row in rows.values():
        assert 0.0 <= row["self_seconds"] <= row["total_seconds"] + 1e-12


def test_plan_execute_rows_carry_op_attribution(report):
    rows = {r["name"]: r for r in report["table"]}
    ex = rows["plan.execute"]
    assert ex["vector_ops"] > 0
    assert ex["flops"] > 0
    assert ex["bytes"] > 0


def test_canonical_trace_strips_nondeterminism(report):
    canon = canonical_trace(report["trace"])

    def walk(spans):
        for sp in spans:
            yield sp
            yield from walk(sp["children"])

    for sp in walk(canon["spans"]):
        assert "seconds" not in sp
        assert "span_id" not in sp
        assert "compile_seconds" not in sp["attrs"]


def test_service_metrics_embedded(report):
    assert report["metrics"]["serve.submitted"]["value"] == \
        report["service"]["submitted"]
    assert "repro_serve_submitted_total" in report["prometheus"]
