"""Validate bench reports against their checked-in JSON schemas.

Two entry points:

* :func:`validate_bench_trace` — the bench-trace report, with a
  hand-written structural check mirroring its span tree (schema at
  ``tests/observe/bench_trace.schema.json``).
* :func:`validate_report` — **generic** validation for any other
  bench report (e.g. ``BENCH_gateway.json`` against
  ``tests/gateway/bench_gateway.schema.json``): the schema file's
  ``required`` keys and the ``schema`` id ``const`` are checked
  dependency-free, and the full ``jsonschema`` validation runs
  additionally when that package is importable — so validation never
  silently passes just because an optional dependency is missing.

Runnable as a module (dispatches on the report's ``schema`` id)::

    python -m repro.observe.schema_check BENCH_trace.json \\
        tests/observe/bench_trace.schema.json
    python -m repro.observe.schema_check BENCH_gateway.json \\
        tests/gateway/bench_gateway.schema.json
"""

from __future__ import annotations

import json
import sys

#: Top-level keys every bench-trace report must carry.
REQUIRED_KEYS = ("schema", "config", "host", "trace", "table",
                 "service", "metrics", "prometheus", "n_spans")

SCHEMA_ID = "dbsr-repro/bench-trace/v1"


class TraceSchemaError(ValueError):
    """The report does not conform to the bench-trace schema."""


def _check_span(sp: dict, path: str, errors: list) -> None:
    if not isinstance(sp, dict):
        errors.append(f"{path}: span must be an object")
        return
    if not isinstance(sp.get("name"), str) or not sp.get("name"):
        errors.append(f"{path}: span needs a non-empty string name")
    if not isinstance(sp.get("attrs"), dict):
        errors.append(f"{path}: span needs an attrs object")
    counts = sp.get("counts")
    if counts is not None:
        for key in ("ops", "bytes", "flops"):
            if key not in counts:
                errors.append(f"{path}: counts missing {key!r}")
    for i, child in enumerate(sp.get("children", [])):
        _check_span(child, f"{path}.children[{i}]", errors)


def structural_errors(report: dict) -> list:
    """Dependency-free structural validation; returns error strings."""
    errors: list[str] = []
    if not isinstance(report, dict):
        return ["report must be a JSON object"]
    for key in REQUIRED_KEYS:
        if key not in report:
            errors.append(f"missing top-level key {key!r}")
    if report.get("schema") != SCHEMA_ID:
        errors.append(
            f"schema must be {SCHEMA_ID!r}, got {report.get('schema')!r}")
    trace = report.get("trace")
    if isinstance(trace, dict):
        spans = trace.get("spans")
        if not isinstance(spans, list) or not spans:
            errors.append("trace.spans must be a non-empty array")
        else:
            for i, sp in enumerate(spans):
                _check_span(sp, f"trace.spans[{i}]", errors)
    elif "trace" in (report or {}):
        errors.append("trace must be an object")
    table = report.get("table")
    if isinstance(table, list):
        for i, row in enumerate(table):
            for key in ("name", "calls", "total_seconds",
                        "self_seconds"):
                if not isinstance(row, dict) or key not in row:
                    errors.append(f"table[{i}] missing {key!r}")
                    break
    elif "table" in (report or {}):
        errors.append("table must be an array")
    return errors


def validate_bench_trace(report: dict,
                         schema_path: str | None = None) -> None:
    """Raise :class:`TraceSchemaError` unless the report conforms.

    Runs the structural check always, and the full JSON-schema
    validation additionally when ``schema_path`` is given and the
    ``jsonschema`` package is available.
    """
    errors = structural_errors(report)
    if errors:
        raise TraceSchemaError("; ".join(errors))
    if schema_path is None:
        return
    with open(schema_path) as fh:
        schema = json.load(fh)
    try:
        import jsonschema
    except ImportError:  # structural check already passed
        return
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        raise TraceSchemaError(str(exc)) from exc


def validate_report(report: dict,
                    schema_path: str | None = None,
                    schema_id: str | None = None) -> None:
    """Generic report validation; raises :class:`TraceSchemaError`.

    Dependency-free checks first: the report is an object, it carries
    every key the schema file's top-level ``required`` lists, and its
    ``schema`` id equals the schema's ``const`` (or ``schema_id``).
    Then the full ``jsonschema`` validation, when importable.
    """
    errors: list[str] = []
    if not isinstance(report, dict):
        raise TraceSchemaError("report must be a JSON object")
    schema = None
    expected_id = schema_id
    if schema_path is not None:
        with open(schema_path) as fh:
            schema = json.load(fh)
        for key in schema.get("required", []):
            if key not in report:
                errors.append(f"missing top-level key {key!r}")
        const = schema.get("properties", {}).get(
            "schema", {}).get("const")
        if const is not None:
            expected_id = const
    if expected_id is not None and report.get("schema") != expected_id:
        errors.append(f"schema must be {expected_id!r}, "
                      f"got {report.get('schema')!r}")
    if errors:
        raise TraceSchemaError("; ".join(errors))
    if schema is None:
        return
    try:
        import jsonschema
    except ImportError:  # structural check already passed
        return
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        raise TraceSchemaError(str(exc)) from exc


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or len(argv) > 2:
        print("usage: python -m repro.observe.schema_check "
              "REPORT.json [SCHEMA.json]", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        report = json.load(fh)
    schema_path = argv[1] if len(argv) == 2 else None
    # Dispatch: with an explicit schema the report validates against
    # it generically (trace reports keep their structural check too);
    # without one, the historical bench-trace validation applies.
    is_trace = schema_path is None or (
        isinstance(report, dict)
        and report.get("schema") == SCHEMA_ID)
    try:
        if is_trace:
            validate_bench_trace(report, schema_path)
        else:
            validate_report(report, schema_path)
    except TraceSchemaError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    if is_trace:
        print(f"{argv[0]}: valid {SCHEMA_ID} report "
              f"({report['n_spans']} spans)")
    else:
        print(f"{argv[0]}: valid {report.get('schema')} report")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
