"""Hierarchical metrics registry: counters, gauges, histograms, bindings.

Every instrumented component obtains a :class:`MetricSet` ("group") from
the current registry (``telemetry.metrics``) under a
``<subsystem>.<component>`` prefix and either

* creates **push** metrics (:class:`Counter`, :class:`Gauge`,
  :class:`Histogram`) it updates on its own hot path, or
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
import random
import zlib
from typing import Any, Dict, List, Optional, Tuple, Union

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


class Histogram:
    """Aggregating histogram with cycle-stamped reservoir samples.

    Aggregates (count / sum / min / max) are always exact.  Raw samples
    feed percentile estimation and are retained as a **uniform random
    reservoir** of up to *max_samples* ``(cycle, value)`` pairs
    (Vitter's Algorithm R): once the reservoir is full, the *n*-th
    observation replaces a random resident with probability
    ``max_samples / n``, so every observation — first or last — has the
    same chance of being retained.  A simple keep-first-N policy would
    bias :meth:`percentile` toward the warm-up phase of a run and hide
    the tail entirely once more than *max_samples* values arrive.

    The reservoir's RNG is seeded from the histogram *name*, so a given
    metric retains the same samples on every identical run — percentile
    estimates stay deterministic and reproducible across runs and hosts.

    **Epochs.**  Streaming consumers (the sliding-window aggregators in
    :mod:`repro.telemetry.windows`) must never let one window's
    percentiles see another window's samples, so they build one
    histogram per window with *epoch* set to the window index: its
    reservoir RNG seeds deterministically from ``(name, epoch)``.  Epoch
    0 (the default) seeds exactly like the historical name-only seed.
    """

    __slots__ = ("name", "count", "total", "min", "max", "samples",
                 "max_samples", "epoch", "_rng")

    def __init__(self, name: str, max_samples: int = 1024, epoch: int = 0):
        self.name = name
        self.max_samples = max_samples
        self.count = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: Retained raw samples as ``(cycle, value)`` pairs (current epoch).
        self.samples: List[Tuple[float, float]] = []
        #: Reservoir epoch (0 = the whole-run default).
        self.epoch = int(epoch)
        self._rng = random.Random(self._seed_for(self.epoch))

    def _seed_for(self, epoch: int) -> int:
        """Deterministic per-(name, epoch) seed; epoch 0 matches the
        historical name-only seeding."""
        if epoch == 0:
            return zlib.crc32(self.name.encode("utf-8"))
        return zlib.crc32(f"{self.name}@epoch{epoch}".encode("utf-8"))

    def observe(self, value: Number, cycle: float = 0.0) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self.samples) < self.max_samples:
            self.samples.append((float(cycle), value))
        elif self.max_samples > 0:
            # Algorithm R: replace a random resident with p = k/n.
            slot = self._rng.randrange(self.count)
            if slot < self.max_samples:
                self.samples[slot] = (float(cycle), value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimate the *p*-th percentile from the retained reservoir.

        Exact while ``count <= max_samples``; an unbiased estimate (linear
        interpolation over the uniform reservoir) beyond that.
        """
        if not self.samples:
            return 0.0
        values = sorted(v for _c, v in self.samples)
        if len(values) == 1:
            return values[0]
        rank = (p / 100.0) * (len(values) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(values) - 1)
        frac = rank - lo
        return values[lo] * (1.0 - frac) + values[hi] * frac

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.samples.clear()
        self.epoch = 0
        # Reseed so a reset histogram replays identically.
        self._rng = random.Random(self._seed_for(0))


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
        super().__init__("null", max_samples=0)

    def observe(self, value: Number, cycle: float = 0.0) -> None:
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

    def histogram(self, name: str, max_samples: int = 1024) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(f"{self.prefix}.{name}", max_samples=max_samples)
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

    def histogram(self, name: str, max_samples: int = 1024) -> Histogram:
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
