"""Hierarchical metrics registry: counters, gauges, histograms, bindings.

Every instrumented component obtains a :class:`MetricSet` ("group") from
the current registry (``telemetry.metrics``) under a
``<subsystem>.<component>`` prefix and either

* creates **push** metrics (:class:`Counter`, :class:`Gauge`,
  :class:`Histogram`) it updates on its own hot path — a histogram is
  exact, and :func:`nearest_rank` over its value counts is the one
  percentile definition every report in the repo uses — or
* **binds** an existing attribute (``set.bind("misses", self.iotlb,
  "misses")``) so the value is *pulled* at snapshot time — zero cost on
  the hot path, which is how the per-packet IOTLB counters stay exact
  without slowing the detailed timing path.

Metric names follow ``<subsystem>.<component>.<name>`` (see
``docs/OBSERVABILITY.md``).  When a second instance registers the same
prefix it is disambiguated as ``<prefix>#1``, ``<prefix>#2``, ...

The registry is **disabled by default**: ``group()`` then hands out a
shared null set whose metrics are inert singletons, so an un-instrumented
run pays only a handful of no-op calls (the "near-zero cost when
disabled" requirement).  Bindings keep the owner alive: an enabled
registry lives only as long as its ``telemetry.scoped()`` handle, and the
end-of-scope snapshot must still see components the traced code has
already dropped (e.g. a SoC local to a script's ``main()``).
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Mapping, Optional, Tuple, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A scalar that may go up and down (occupancy, queue depth, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def add(self, delta: Number) -> None:
        self.value += delta

    def reset(self) -> None:
        self.value = 0


def nearest_rank(counts: Mapping[float, int], pct: float) -> Optional[float]:
    """Nearest-rank *pct*-th percentile of a ``{value: multiplicity}`` sample.

    The value at 1-indexed rank ``ceil(pct/100 * n)`` (at least 1, at
    most *n*) of the ascending sample, so it is always a value some
    observation actually took.  An empty sample has no percentile:
    returns None (a caller that wants a sentinel picks its own).
    """
    n = sum(counts.values())
    if not n:
        return None
    rank = min(max(1, math.ceil(pct / 100.0 * n)), n)
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            break
    return value


class Histogram:
    """Exact histogram: every observed value with its multiplicity.

    ``count`` and ``total`` accumulate in observation order; ``counts``
    maps each distinct value to how often it was observed, and
    min / max / p50 / p99 are read from it (:func:`nearest_rank`), so
    every percentile is exact and no observation is ever dropped.  It
    holds one entry per distinct value: never more than the run's own
    observations, and few for the repetitive costs of a simulated layer.
    """

    __slots__ = ("name", "count", "total", "counts")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total: float = 0.0
        #: Distinct observed value -> multiplicity.
        self.counts: Dict[float, int] = {}

    def observe(self, value: Number) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        counts = self.counts
        counts[value] = counts.get(value, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """Aggregates and nearest-rank percentiles; all zeros while empty."""
        counts = self.counts
        if not counts:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                    "max": 0.0, "p50": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": min(counts),
            "max": max(counts),
            "p50": nearest_rank(counts, 50),
            "p99": nearest_rank(counts, 99),
        }

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.counts.clear()


# ----------------------------------------------------------------------
# Null objects handed out while telemetry is disabled
# ----------------------------------------------------------------------
class _NullCounter(Counter):
    __slots__ = ()

    def __init__(self):
        super().__init__("null")

    def inc(self, amount: Number = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def __init__(self):
        super().__init__("null")

    def set(self, value: Number) -> None:
        pass

    def add(self, delta: Number) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def __init__(self):
        super().__init__("null")

    def observe(self, value: Number) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class MetricSet:
    """One component's metrics under a shared hierarchical prefix."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self._metrics: "Dict[str, Union[Counter, Gauge, Histogram]]" = {}
        #: name -> (owner, attribute name).  Resolved lazily at snapshot
        #: time; a callable attribute (method/property value) is invoked
        #: with no arguments.  Strong references: the registry dies with
        #: its scope, and snapshots must outlive the traced code's locals.
        self._bindings: Dict[str, Tuple[Any, str]] = {}

    # -- push metrics --------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Counter(f"{self.prefix}.{name}")
            self._metrics[name] = metric
        return metric  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Gauge(f"{self.prefix}.{name}")
            self._metrics[name] = metric
        return metric  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(f"{self.prefix}.{name}")
            self._metrics[name] = metric
        return metric  # type: ignore[return-value]

    # -- pull bindings -------------------------------------------------
    def bind(self, name: str, obj: Any, attr: str) -> None:
        """Expose ``obj.<attr>`` (value, property or 0-arg method) as
        ``<prefix>.<name>`` without touching the owner's hot path."""
        self._bindings[name] = (obj, attr)

    # -- collection ----------------------------------------------------
    def collect(self) -> Dict[str, Any]:
        """Flat ``name -> scalar`` view of this set (histograms expand)."""
        out: Dict[str, Any] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                for stat, value in metric.summary().items():
                    out[f"{self.prefix}.{name}.{stat}"] = value
            else:
                out[f"{self.prefix}.{name}"] = metric.value
        for name, (obj, attr) in self._bindings.items():
            value = getattr(obj, attr)
            if callable(value):
                value = value()
            out[f"{self.prefix}.{name}"] = value
        return out

    def reset(self) -> None:
        for metric in self._metrics.values():
            metric.reset()


class _NullMetricSet(MetricSet):
    """Inert set returned while the registry is disabled."""

    def __init__(self):
        super().__init__("null")

    def counter(self, name: str) -> Counter:
        return NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return NULL_GAUGE

    def histogram(self, name: str) -> Histogram:
        return NULL_HISTOGRAM

    def bind(self, name: str, obj: Any, attr: str) -> None:
        pass

    def collect(self) -> Dict[str, Any]:
        return {}


NULL_SET = _NullMetricSet()


class MetricsRegistry:
    """Hierarchy of :class:`MetricSet` groups (one per telemetry scope)."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._groups: Dict[str, MetricSet] = {}
        self._prefix_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def group(self, prefix: str) -> MetricSet:
        """Register (or create) a metric group under *prefix*.

        Each call creates a fresh instance-scoped set; a repeated prefix
        gets a ``#<n>`` suffix so two DMA engines never share counters.
        Returns the shared null set while the registry is disabled.
        """
        if not self.enabled:
            return NULL_SET
        n = self._prefix_counts.get(prefix, 0)
        self._prefix_counts[prefix] = n + 1
        full = prefix if n == 0 else f"{prefix}#{n}"
        group = MetricSet(full)
        self._groups[full] = group
        return group

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Flat, name-sorted ``metric -> value`` view of everything live."""
        out: Dict[str, Any] = {}
        for group in self._groups.values():
            out.update(group.collect())
        return dict(sorted(out.items()))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, default=str)

    def get(self, name: str, default: Any = 0) -> Any:
        """Convenience point lookup of one metric by full name."""
        return self.snapshot().get(name, default)
