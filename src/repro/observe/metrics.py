"""Metrics registry — counters, gauges, histograms, two exporters.

A :class:`MetricsRegistry` is the one store for the stack's tallies:
each component (cache, service, fallback chain, breaker, supervisor,
canary, brownout, and the gateway with its pool) owns one, and its
``stats()`` is a view read through :meth:`MetricsRegistry.values`.
Instruments have a fixed type and thread-safe updates, and are keyed
by name *and* labels. Two export formats:

* :meth:`MetricsRegistry.to_json` — the machine-readable form embedded
  in ``BENCH_*.json`` reports;
* :meth:`MetricsRegistry.to_prometheus_text` — the Prometheus text
  exposition format (``repro_`` prefix, dots mapped to underscores,
  counters suffixed ``_total``, histograms as cumulative
  ``_bucket``/``_sum``/``_count`` series, one ``# TYPE`` per family).

Naming scheme (``docs/observability.md`` lists every instrument):
dotted lowercase ``<layer>.<noun>[.<verb>]`` — e.g. ``serve.submitted``,
``cache.evictions``, ``fallback.recompiles``.

Histograms use **fixed bucket edges** chosen at registration so that
merging two histograms (e.g. per-shard registries) is exact: merges
are associative and commutative, a property pinned by the Hypothesis
suite in ``tests/observe/``.
"""

from __future__ import annotations

import bisect
import json
import math
import threading


class MetricError(ValueError):
    """Invalid metric registration or update."""


class MetricNameCollision(MetricError):
    """Two instrument names export as one Prometheus family (``x.y``
    and ``x_y`` both become ``repro_x_y``)."""

    def __init__(self, name: str, existing: str, family: str):
        self.name = name
        self.existing = existing
        self.family = family
        super().__init__(
            f"metric {name!r} collides with {existing!r}: both export "
            f"as Prometheus family {family!r}")


def _check_name(name: str) -> str:
    if not name or any(c.isspace() for c in name):
        raise MetricError(f"invalid metric name {name!r}")
    return name


class _Scalar:
    """One numeric series: name, help, labels and a lock-guarded value."""

    def __init__(self, name: str, help: str = "",
                 labels: dict | None = None):
        self.name = _check_name(name)
        self.help = help
        self.labels = dict(labels) if labels else {}
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n=1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self):
        # One attribute load is atomic; the lock serializes updates.
        return self._value

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Counter(_Scalar):
    """Monotonically increasing counter (a count or accumulated seconds)."""

    kind = "counter"

    def inc(self, n: int | float = 1) -> None:
        """Add ``n`` (must be >= 0: counters never go down)."""
        if n < 0:
            raise MetricError(
                f"counter {self.name!r} cannot decrease (inc({n}))")
        with self._lock:
            self._value += n


class Gauge(_Scalar):
    """Instantaneous value (may move in either direction)."""

    kind = "gauge"

    def set(self, v) -> None:
        with self._lock:
            self._value = v

    def dec(self, n=1) -> None:
        self.inc(-n)


#: Default bucket edges for second-scale latency histograms.
LATENCY_EDGES = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0)

#: Default bucket edges for small-integer width histograms (batch k).
WIDTH_EDGES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


class Histogram:
    """Fixed-bucket histogram with exact, order-independent merges.

    ``edges`` are the finite upper bounds of the first ``len(edges)``
    buckets (strictly increasing); an implicit ``+Inf`` bucket catches
    the rest. ``bucket_counts[i]`` is the number of observations with
    ``v <= edges[i]`` that fell in bucket ``i`` (non-cumulative; the
    Prometheus exporter cumulates).
    """

    kind = "histogram"

    def __init__(self, name: str, edges=LATENCY_EDGES, help: str = "",
                 labels: dict | None = None):
        self.name = _check_name(name)
        self.help = help
        self.labels = dict(labels) if labels else {}
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise MetricError("histogram needs at least one bucket edge")
        if any(not math.isfinite(e) for e in edges):
            raise MetricError("bucket edges must be finite")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise MetricError("bucket edges must be strictly increasing")
        self.edges = edges
        self._lock = threading.Lock()
        self._counts = [0] * (len(edges) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, v: float) -> None:
        """Record one observation."""
        v = float(v)
        i = bisect.bisect_left(self.edges, v)
        with self._lock:
            self._counts[i] += 1
            self._sum += v
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> list:
        with self._lock:
            return list(self._counts)

    def merge(self, other: "Histogram") -> "Histogram":
        """Pure merge: a new histogram holding both observation sets.

        Requires identical edges; exact (bucket counts and sums add),
        hence associative and commutative.
        """
        if self.edges != other.edges:
            raise MetricError(
                f"cannot merge histograms with different edges: "
                f"{self.edges} vs {other.edges}")
        out = Histogram(self.name, self.edges, self.help, self.labels)
        with self._lock:
            mine = (list(self._counts), self._sum, self._count)
        with other._lock:
            theirs = (list(other._counts), other._sum, other._count)
        out._counts = [a + b for a, b in zip(mine[0], theirs[0])]
        out._sum = mine[1] + theirs[1]
        out._count = mine[2] + theirs[2]
        return out

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "type": self.kind,
                "edges": list(self.edges),
                "bucket_counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }


def _label_key(labels: dict | None) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items())) \
        if labels else ()


def _labels_text(key: tuple) -> str:
    if not key:
        return ""
    inner = ",".join(
        '{}="{}"'.format(k, v.replace("\\", "\\\\")
                         .replace('"', '\\"').replace("\n", "\\n"))
        for k, v in key)
    return "{" + inner + "}"


class MetricsRegistry:
    """Named instruments with idempotent registration.

    An instrument is keyed by ``(name, labels)``. Registering a key
    twice returns the existing instrument when the type matches (so
    independent call sites can share a counter); registering a name
    under a second type, with any labels, raises :class:`MetricError`.
    """

    def __init__(self, prefix: str = "repro"):
        self.prefix = prefix
        self._lock = threading.Lock()
        self._instruments: dict[tuple, object] = {}
        self._kinds: dict[str, type] = {}
        #: Exported family name -> the instrument name that owns it.
        self._families: dict[str, str] = {}
        #: prefix -> its ``values`` members; a registration clears it.
        self._views: dict[str, list] = {}

    def _register(self, cls, name: str, labels: dict | None, *args):
        key = (name, _label_key(labels))
        with self._lock:
            kind = self._kinds.get(name)
            if kind is not None and kind is not cls:
                raise MetricError(
                    f"{name!r} already registered as "
                    f"{kind.kind}, not {cls.kind}")
            if kind is None:
                family = self._prom_name(name) + (
                    "_total" if cls is Counter else "")
                owner = self._families.get(family)
                if owner is not None:
                    raise MetricNameCollision(name, owner, family)
            inst = self._instruments.get(key)
            if inst is None:
                inst = cls(name, *args, labels=labels)
                self._instruments[key] = inst
                if kind is None:
                    self._kinds[name] = cls
                    self._families[family] = name
                self._views.clear()
            return inst

    def counter(self, name: str, help: str = "",
                labels: dict | None = None) -> Counter:
        return self._register(Counter, name, labels, help)

    def gauge(self, name: str, help: str = "",
              labels: dict | None = None) -> Gauge:
        return self._register(Gauge, name, labels, help)

    def histogram(self, name: str, edges=LATENCY_EDGES, help: str = "",
                  labels: dict | None = None) -> Histogram:
        return self._register(Histogram, name, labels, edges, help)

    def get(self, name: str, labels: dict | None = None):
        with self._lock:
            return self._instruments.get((name, _label_key(labels)))

    def names(self) -> list:
        """Sorted instrument family names (labels collapsed)."""
        with self._lock:
            return sorted(self._kinds)

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def values(self, prefix: str) -> dict:
        """``{suffix: value}`` of the unlabeled counters and gauges
        named ``prefix + suffix`` with a dot-free ``suffix``.

        The one read every ``stats()`` view makes: ``values("cache.")``
        gives ``{"hits": …, "misses": …}``, and a nested prefix such as
        ``values("fallback.depth.")`` gives one level further down. The
        gateway reads a shard cache's values twice per chunk, so each
        prefix's members are found once and remembered.
        """
        with self._lock:
            view = self._views.get(prefix)
            if view is None:
                view = self._views[prefix] = [
                    (name[len(prefix):], inst)
                    for (name, labels), inst in self._instruments.items()
                    if not labels and name.startswith(prefix)
                    and "." not in name[len(prefix):]
                    and isinstance(inst, _Scalar)]
        return {suffix: inst.value for suffix, inst in view}

    # Export -------------------------------------------------------------
    def snapshot(self) -> dict:
        """One consistent-enough dict of every instrument's state,
        keyed ``name`` or, for a labeled series, ``name{k="v"}``."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {name + _labels_text(key): inst.snapshot()
                for (name, key), inst in items}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def _prom_name(self, name: str) -> str:
        flat = name.replace(".", "_").replace("-", "_")
        return f"{self.prefix}_{flat}" if self.prefix else flat

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format (version 0.0.4).

        Series are grouped by exported family name, which gets one
        ``# HELP``/``# TYPE`` header however many label sets feed it;
        registration rejects a second name that would mangle into the
        same family (:class:`MetricNameCollision`).
        """
        with self._lock:
            items = list(self._instruments.items())
        series = sorted(
            ((self._prom_name(name)
              + ("_total" if isinstance(inst, Counter) else ""), key, inst)
             for (name, key), inst in items), key=lambda s: s[:2])
        lines = []
        declared = set()
        for pname, key, inst in series:
            if pname not in declared:
                declared.add(pname)
                if inst.help:
                    lines.append(f"# HELP {pname} {inst.help}")
                lines.append(f"# TYPE {pname} {inst.kind}")
            if isinstance(inst, _Scalar):
                lines.append(f"{pname}{_labels_text(key)} {inst.value}")
                continue
            snap = inst.snapshot()
            cum = 0
            for edge, n in zip(snap["edges"] + ["+Inf"],
                               snap["bucket_counts"]):
                cum += n
                le = _labels_text(key + (("le", str(edge)),))
                lines.append(f"{pname}_bucket{le} {cum}")
            lines.append(f"{pname}_sum{_labels_text(key)} {snap['sum']}")
            lines.append(
                f"{pname}_count{_labels_text(key)} {snap['count']}")
        return "\n".join(lines) + "\n"
