"""Unit tests for repro.observe.metrics (registry + exporters)."""

from __future__ import annotations

import json

import pytest

from repro.observe.metrics import (
    LATENCY_EDGES,
    WIDTH_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricNameCollision,
    MetricsRegistry,
)


def test_counter_monotone():
    c = Counter("serve.submitted")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(MetricError):
        c.inc(-1)
    assert c.value == 5  # the rejected update must not apply


def test_gauge_moves_both_ways():
    g = Gauge("serve.pending")
    g.set(10)
    g.inc(2)
    g.dec(5)
    assert g.value == 7


def test_invalid_metric_names_rejected():
    for bad in ("", "has space", "new\nline"):
        with pytest.raises(MetricError):
            Counter(bad)


def test_histogram_bucketing_against_edges():
    h = Histogram("h", edges=(1.0, 10.0))
    for v in (0.5, 1.0, 5.0, 10.0, 11.0):
        h.observe(v)
    # v <= 1.0 -> bucket 0; <= 10.0 -> bucket 1; else +Inf bucket.
    assert h.bucket_counts() == [2, 2, 1]
    assert h.count == 5
    assert h.sum == pytest.approx(27.5)


def test_histogram_edge_validation():
    with pytest.raises(MetricError):
        Histogram("h", edges=())
    with pytest.raises(MetricError):
        Histogram("h", edges=(1.0, 1.0))
    with pytest.raises(MetricError):
        Histogram("h", edges=(1.0, float("inf")))


def test_histogram_merge_requires_same_edges():
    a = Histogram("h", edges=(1.0, 2.0))
    b = Histogram("h", edges=(1.0, 3.0))
    with pytest.raises(MetricError):
        a.merge(b)


def test_histogram_merge_is_pure_and_exact():
    a = Histogram("h", edges=LATENCY_EDGES)
    b = Histogram("h", edges=LATENCY_EDGES)
    a.observe(0.0005)
    b.observe(2.0)
    m = a.merge(b)
    assert m is not a and m is not b
    assert m.count == 2
    assert a.count == 1 and b.count == 1  # operands untouched
    assert m.bucket_counts() == [
        x + y for x, y in zip(a.bucket_counts(), b.bucket_counts())]


def test_registry_idempotent_registration():
    reg = MetricsRegistry()
    a = reg.counter("serve.submitted", "help text")
    b = reg.counter("serve.submitted")
    assert a is b
    assert len(reg) == 1


def test_registry_type_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(MetricError):
        reg.gauge("x")


def test_registry_snapshot_and_json():
    reg = MetricsRegistry()
    reg.counter("a.count").inc(3)
    reg.gauge("a.gauge").set(-2)
    reg.histogram("a.hist", edges=WIDTH_EDGES).observe(4.0)
    snap = reg.snapshot()
    assert snap["a.count"] == {"type": "counter", "value": 3}
    assert snap["a.gauge"]["value"] == -2
    assert snap["a.hist"]["count"] == 1
    assert json.loads(reg.to_json()) == snap
    assert reg.names() == ["a.count", "a.gauge", "a.hist"]


def test_prometheus_text_format():
    reg = MetricsRegistry(prefix="repro")
    reg.counter("serve.submitted", "requests accepted").inc(7)
    reg.gauge("serve.pending").set(2)
    h = reg.histogram("serve.batch-width", edges=(1.0, 4.0))
    h.observe(1.0)
    h.observe(3.0)
    h.observe(100.0)
    text = reg.to_prometheus_text()
    lines = text.splitlines()
    assert "# HELP repro_serve_submitted_total requests accepted" in lines
    assert "# TYPE repro_serve_submitted_total counter" in lines
    assert "repro_serve_submitted_total 7" in lines
    assert "repro_serve_pending 2" in lines
    # Histogram buckets are cumulative, dashes mapped to underscores.
    assert 'repro_serve_batch_width_bucket{le="1.0"} 1' in lines
    assert 'repro_serve_batch_width_bucket{le="4.0"} 2' in lines
    assert 'repro_serve_batch_width_bucket{le="+Inf"} 3' in lines
    assert "repro_serve_batch_width_count 3" in lines
    assert text.endswith("\n")


def test_prometheus_no_prefix():
    reg = MetricsRegistry(prefix="")
    reg.counter("c").inc()
    assert "c_total 1" in reg.to_prometheus_text()


@pytest.mark.parametrize("first, second, family", [
    (("counter", "x.y"), ("counter", "x_y"), "repro_x_y_total"),
    (("gauge", "x_y"), ("gauge", "x.y"), "repro_x_y"),
    (("gauge", "a.b-c"), ("histogram", "a.b.c"), "repro_a_b_c"),
    (("counter", "q"), ("gauge", "q.total"), "repro_q_total"),
])
def test_names_exporting_as_one_family_are_rejected(first, second,
                                                    family):
    reg = MetricsRegistry()
    getattr(reg, first[0])(first[1])
    with pytest.raises(MetricNameCollision) as err:
        getattr(reg, second[0])(second[1])
    assert (err.value.name, err.value.existing) == (second[1], first[1])
    assert err.value.family == family
    assert first[1] in str(err.value) and second[1] in str(err.value)
    # The rejected name registered nothing, and the export keeps one
    # series per family.
    assert reg.names() == [first[1]]
    text = reg.to_prometheus_text()
    assert text.count(f"# TYPE {family} ") == 1


def test_same_name_new_labels_is_not_a_collision():
    reg = MetricsRegistry()
    reg.counter("gateway.tenant.admitted", labels={"tenant": "a"})
    reg.counter("gateway.tenant.admitted", labels={"tenant": "b"})
    assert len(reg) == 2
